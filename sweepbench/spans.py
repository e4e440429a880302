"""Layer spans recorded from outside the program (traced runs only).

:class:`Recorder` replaces each layer's public entry points with a
wrapper that records a span (name, start, end, parent span, cell) in
memory, and puts the originals back when the ``installed()`` block
ends.  Parents come from a per-thread stack, so a span's children are
the wrapped calls it made.  A span's self time is its duration minus
the durations of its children, and the self times of all spans plus
the time no span covers add up to the traced sweep's wall time.

Functions imported by name are wrapped at the import site named in
:func:`layer_targets` (``parse_tactic`` as the checker calls it, not as
``run_script`` does), so each span means the call path its metric
names.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

__all__ = ["Recorder", "Span", "layer_targets", "tactic_head"]


class Span:
    __slots__ = ("name", "tag", "cell", "start", "end", "child", "parent")

    def __init__(self, name, tag, cell, start, parent) -> None:
        self.name = name
        self.tag = tag
        self.cell = cell
        self.start = start
        self.end = start
        self.child = 0.0  # summed duration of direct children
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Recorder:
    """In-memory span store plus counters fed by result hooks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.contexts: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_cell(self, cell: Optional[int]) -> None:
        self._local.cell = cell

    def count(self, **deltas: int) -> None:
        with self._lock:
            self.counts.update(deltas)

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: Optional[Callable] = None,
        hook: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``tag(args)`` labels the span; ``hook(args, result)`` runs
        after the span closes, so its cost is charged to the parent.
        """
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = Span(
                name,
                tag(args) if tag is not None else None,
                getattr(local, "cell", None),
                clock(),
                parent,
            )
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Patch every target for the block; restore all afterwards."""
        patched = []
        try:
            for owner, attr, name, tag, hook in targets:
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(original, name, tag, hook))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Derived numbers
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_time
        return out

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.duration
        return out

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def tagged_self_times(self, name: str) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                out[span.tag] += span.self_time
        return out

    def write(self, path) -> None:
        """Dump spans as JSON lines; parents become list indexes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = index[id(span.parent)] if span.parent else None
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "tag": span.tag,
                            "cell": span.cell,
                            "start": span.start,
                            "end": span.end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


_HEADS = {
    "Intro": "intros",
    "Intros": "intros",
    "Apply": "apply",
    "Rewrite": "rewrite",
    "Simpl": "simpl",
    "Destruct": "destruct",
    "Induction": "induction",
    "Inversion": "inversion",
    "Lia": "lia",
    "Congruence": "congruence",
}
TACTIC_HEADS = sorted(set(_HEADS.values()) | {"auto", "eauto", "other"})


def tactic_head(node) -> str:
    """The reporting bucket of a parsed tactic (``eapply`` is apply)."""
    kind = type(node).__name__
    if kind == "Auto":
        return "eauto" if node.existential else "auto"
    return _HEADS.get(kind, "other")


def layer_targets(recorder: Recorder) -> list:
    """``(owner, attribute, span name, tag, hook)`` for every layer."""
    import repro.eval.runner as runner_mod
    import repro.llm.cost as cost_mod
    import repro.llm.models as models_mod
    import repro.prompting.prompt as prompt_mod
    import repro.prompting.truncation as truncation_mod
    import repro.serapi.checker as checker_mod
    from repro.core.search import BestFirstSearch
    from repro.llm.cost import UsageMeter
    from repro.llm.models import SimulatedModel
    from repro.prompting.prompt import THEOREM_HEADER, PromptBuilder
    from repro.repair.engine import RepairEngine
    from repro.serapi.checker import ProofChecker
    from repro.testing.latency import LatencyGenerator

    count = recorder.count
    contexts = recorder.contexts

    def on_build(args, prompt):
        # The context prefix as sent, after truncation: the key a
        # context-keyed memo (such as the prompt reader's) can reuse.
        contexts.add(hash(prompt.split(THEOREM_HEADER, 1)[0]))

    def on_truncate(args, kept):
        count(truncated=int(kept is not args[0]))

    def on_generate(args, candidates):
        count(candidates_returned=len(candidates))

    def on_search(args, result):
        stats = result.stats
        count(
            nodes_expanded=stats.nodes_expanded,
            candidates=stats.candidates,
            rejected=stats.rejected,
            duplicates=stats.duplicates,
            search_timeouts=stats.timeouts,
        )

    def on_check(args, result):
        count(**{f"verdict.{result.verdict.value}": 1})

    return [
        (runner_mod.Runner, "execute_task", "eval.task", None, None),
        (runner_mod, "run_script", "eval.qed_replay", None, None),
        (runner_mod, "count_tokens", "tokenizer.count", None, None),
        (RepairEngine, "prove", "repair", None, None),
        (BestFirstSearch, "prove", "search", None, on_search),
        (PromptBuilder, "__post_init__", "prompting.context", None, None),
        (PromptBuilder, "build", "prompting.build", None, on_build),
        (
            prompt_mod,
            "truncate_to_window",
            "prompting.truncate",
            None,
            on_truncate,
        ),
        (truncation_mod, "count_tokens", "tokenizer.count", None, None),
        (LatencyGenerator, "generate", "endpoint", None, None),
        (LatencyGenerator, "generate_batch", "endpoint", None, None),
        (SimulatedModel, "generate", "llm.generate", None, on_generate),
        (models_mod, "parse_prompt", "llm.parse_prompt", None, None),
        (UsageMeter, "record_query", "llm.usage", None, None),
        (cost_mod, "count_tokens", "tokenizer.count", None, None),
        (ProofChecker, "check", "serapi.check", None, on_check),
        (checker_mod, "parse_tactic", "tactics.parse", None, None),
        (
            checker_mod,
            "run_tactic",
            "tactics.run",
            lambda args: tactic_head(args[2]),
            None,
        ),
    ]
