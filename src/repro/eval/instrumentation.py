"""Per-stage timing and counters for the evaluation engine.

A :class:`Metrics` object is a thread-safe sink for the pipeline's
four instrumented stages — prompt build, candidate generation, tactic
checking, and the final Qed replay — plus arbitrary named counters
(checker verdict histograms, store hit/miss accounting, …).

Stage timings come only from spans (:mod:`repro.obs.trace`):
:meth:`repro.eval.runner.Runner.execute_task` runs every task under a
tracer (record-less when untraced) and, at task end, folds its
per-span-name totals into the task's sink once, through
:data:`STAGE_SPANS` (:meth:`Metrics.add_span_totals`).  Only counters
are threaded *by duck type* through lower layers (the checker's
``incr("verdict.<v>")``); those modules never import this one, keeping
the layering acyclic.

Snapshots are plain JSON-able dicts, so process-pool workers can ship
their per-task metrics back to the parent, which :meth:`Metrics.merge`\\ s
them into the sweep-level sink.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional

__all__ = ["Metrics", "STAGES", "STAGE_SPANS"]

# The pipeline stages the engine times (in pipeline order), each with
# the span whose totals make its row (the only such map).
STAGE_SPANS = {
    "prompt_build": "prompt_build",
    "generation": "generation",
    "checking": "tactic",
    "qed_replay": "qed_replay",
}
STAGES = tuple(STAGE_SPANS)


class Metrics:
    """Thread-safe counters and per-stage wall-clock accumulators."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._stages: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            cell = self._stages.setdefault(stage, {"seconds": 0.0, "calls": 0})
            cell["seconds"] += seconds
            cell["calls"] += calls

    def add_span_totals(self, totals: dict, since: dict) -> None:
        """Fold the ``{span: (seconds, calls)}`` a tracer gained after
        ``since`` (its totals at task start, so a tracer outliving the
        task is not counted twice) into the stage rows.  A stage whose
        span never ran gets no row."""
        for stage, span in STAGE_SPANS.items():
            seconds, calls = totals.get(span, (0.0, 0))
            before = since.get(span, (0.0, 0))
            if calls > before[1]:
                self.add_time(stage, seconds - before[0], calls - before[1])

    # ------------------------------------------------------------------
    # Reading / combining
    # ------------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def verdict_histogram(self) -> Dict[str, int]:
        prefix = "verdict."
        with self._lock:
            return {
                name[len(prefix):]: count
                for name, count in self._counters.items()
                if name.startswith(prefix)
            }

    def snapshot(self) -> dict:
        """A JSON-able copy: ``{"counters": …, "stages": …}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "stages": {
                    stage: dict(cell) for stage, cell in self._stages.items()
                },
            }

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold another sink's :meth:`snapshot` into this one."""
        if not snapshot:
            return
        for name, count in snapshot.get("counters", {}).items():
            self.incr(name, count)
        for stage, cell in snapshot.get("stages", {}).items():
            self.add_time(stage, cell["seconds"], cell.get("calls", 0))

    def dump(self, path) -> None:
        """Write the snapshot as JSON (next to the run store)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
