"""Best-first proof search (the paper's §3).

The loop alternates the paper's two steps:

* **Selection** — pop the unexpanded node with the highest cumulative
  log-probability of its tactic prefix.
* **Expansion** — query the model once (one unit of fuel) for up to
  ``width`` candidate tactics, validate each against the checker, and
  append the valid ones as children.

A tactic is invalid if it is rejected by the checker, recreates a
proof state already in the tree, or exceeds the tactic timeout.
Search succeeds as soon as any child state is complete; it fails
*stuck* when the frontier empties and *fuelout* when the query limit
(paper: 128) is exhausted.

Selection runs ahead of validation by up to ``pipeline_depth`` rounds
(``SearchConfig.pipeline_depth``, default 1): each iteration reserves
frontier nodes for the free slots (virtual-loss selection — a reserved
node leaves the queue, so the next reservation picks a sibling), then
opens one ``expand`` span in which it builds and submits the new
rounds' prompts through :class:`repro.core.pipeline.GenerationPipeline`
and validates the *oldest* round while the younger ones keep
generating.  Rounds commit strictly in reservation order, so the tree
— and every outcome record — is a pure function of the selection
sequence, and any depth is run-to-run deterministic.  At depth 1 the
loop is the classic select/expand alternation.  At depth > 1
selection is speculative (round *i+1* is chosen before round *i*'s
children exist), so the *exploration order* may differ from depth 1 —
wall-clock drops, coverage is pinned by
``tests/eval/test_pipeline_determinism.py``.  The trace shape is
``search → (select, expand → prompt_build, generation, tactic*)*`` at
every depth.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Set, Tuple

from repro.core.frontier import make_frontier
from repro.core.node import Node
from repro.core.pipeline import GenerationHandle, GenerationPipeline
from repro.core.result import (
    FailureContext,
    SearchResult,
    SearchStats,
    Status,
)
from repro.core.transcript import CandidateEvent, ExpansionEvent, Transcript
from repro.deadline import Deadline
from repro.errors import GenerationError
from repro.kernel.goals import ProofState
from repro.kernel.terms import Term
from repro.llm.interface import TacticGenerator
from repro.obs.trace import NULL_TRACER
from repro.serapi.checker import ProofChecker, Verdict

__all__ = ["SearchConfig", "BestFirstSearch", "NO_CANDIDATES_TACTIC"]

PromptFn = Callable[[ProofState, Sequence[str]], str]

#: Sentinel ``FailureContext.failed_tactic`` recorded when an expansion
#: produced no usable candidates at all (the model returned an empty
#: list, or only blank tactics).  Without it a search that starves this
#: way ends STUCK with ``failure=None`` and the repair engine — which
#: needs a failure frontier to resume from — would skip a theorem that
#: is in fact repair-eligible.
NO_CANDIDATES_TACTIC = "<no candidates>"


@dataclass(frozen=True)
class SearchConfig:
    """Hyperparameters (defaults follow the paper §4)."""

    width: int = 8  # candidates per query (Gemini's max outputs)
    fuel: int = 128  # model-query limit (as in GPT-f)
    tactic_timeout: float = 5.0  # seconds per tactic
    frontier: str = "best-first"
    dedup_states: bool = True  # ablation: duplicate-state pruning
    max_depth: int = 64
    # Per-theorem wall-clock budget: the search yields a clean TIMEOUT
    # outcome when it expires (checked between expansions), instead of
    # running unbounded.  None = no deadline (the paper's setting).
    theorem_deadline: Optional[float] = None
    # Intra-search pipelining: generation calls kept in flight at once.
    # 1 (default) alternates selection and expansion; >= 2 overlaps
    # generation and checking.  Deliberately NOT part of
    # TheoremTask.cache_key() — like `trace`, it is an execution knob,
    # not a sweep cell coordinate (see
    # repro.eval.config.ExperimentConfig.pipeline_depth).
    pipeline_depth: int = 1

    def __post_init__(self) -> None:
        if self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )


class BestFirstSearch:
    """One searcher per (checker, generator, config) triple."""

    def __init__(
        self,
        checker: ProofChecker,
        generator: TacticGenerator,
        config: Optional[SearchConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        generate_fn: Optional[
            Callable[[str, int], Sequence["object"]]
        ] = None,
        tracer=None,
        submit_fn: Optional[Callable[[str, int], object]] = None,
    ) -> None:
        """``clock`` feeds the wall-clock stats and the per-theorem
        deadline (injectable for timeout tests).  ``generate_fn``
        overrides how an expansion queries the model (default:
        ``generator.generate``); the service layer injects a handle
        that routes through its shared micro-batcher, with identical
        semantics — the handle must obey the determinism contract of
        :func:`repro.llm.interface.generate_batch`.  ``submit_fn`` is
        the optional *asynchronous* counterpart used at
        ``pipeline_depth >= 2``: ``submit_fn(prompt, k)`` starts a
        generation call and returns a handle with ``result()`` (e.g.
        :meth:`repro.service.batching.BatchingGenerator.submit`); when
        absent, the generator's own ``submit`` method is used if it has
        one and ``generate_fn`` was not overridden, else the pipeline
        falls back to a small thread pool over ``generate_fn``.
        ``tracer`` is an optional :class:`repro.obs.trace.Tracer`
        recording selection / expansion spans; the default no-op
        tracer costs nothing and leaves outcomes untouched.  The
        ``prompt_build`` and ``generation`` spans are those stages'
        only clock: :meth:`repro.eval.runner.Runner.execute_task` folds
        their totals into the task's stage table."""
        if not getattr(generator, "provides_log_probs", False):
            raise GenerationError(
                f"model {generator.name} provides no log-probabilities; "
                "best-first search requires them (paper §4.3)"
            )
        self.checker = checker
        self.generator = generator
        self.config = config or SearchConfig()
        self.clock = clock
        self.generate = generate_fn or generator.generate
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.submit_fn = submit_fn
        self._default_generate = generate_fn is None

    def _resolve_submit_fn(self) -> Optional[Callable[[str, int], object]]:
        """The async submission route for ``pipeline_depth >= 2``."""
        if self.submit_fn is not None:
            return self.submit_fn
        if self._default_generate:
            return getattr(self.generator, "submit", None)
        return None

    def prove(
        self,
        theorem_name: str,
        statement: Term,
        prompt_fn: PromptFn,
        transcript: Optional[Transcript] = None,
        initial_tactics: Sequence[str] = (),
    ) -> SearchResult:
        """Search for a proof of ``statement``.

        ``initial_tactics`` seeds the tree with a validated tactic
        prefix (the repair engine resumes from a failed search's
        surviving prefix this way): each tactic is replayed through
        the checker from the root, and every surviving prefix node
        joins the frontier — deeper nodes with a strictly better
        score, so the search expands the failure frontier first but
        can still back off to shallower alternatives (including the
        root).  A prefix tactic the checker now refuses simply
        truncates the prefix there.
        """
        config = self.config
        stats = SearchStats()
        started = self.clock()
        deadline = (
            Deadline.after(config.theorem_deadline, clock=self.clock)
            if config.theorem_deadline is not None
            else None
        )

        root_state = self.checker.start(statement)
        root = Node(
            state=root_state,
            key=self.checker.state_key(root_state),
            cum_log_prob=0.0,
            depth=0,
        )
        frontier = make_frontier(config.frontier)
        frontier.push(root)
        seen: Set = {root.key}
        stats.nodes_created = 1

        # Replay the seed prefix: one chain of nodes below the root.
        # Prefix node at depth d scores +d*1e-6 — strictly above the
        # root's 0.0 and increasing with depth — so the deepest node
        # (the failure frontier being repaired) is selected first.
        # (The old -(n-d)*1e-6 scoring gave the deepest node exactly
        # 0.0, tying the root; the insertion-order tie-break then made
        # every repair round re-expand the root before the frontier it
        # was supposed to resume from.)
        node = root
        for offset, tactic in enumerate(initial_tactics):
            check = self.checker.check(
                node.state,
                tactic,
                seen_keys=seen if config.dedup_states else None,
            )
            if check.verdict is not Verdict.VALID or check.state is None:
                break
            child = Node(
                state=check.state,
                key=self.checker.state_key(check.state),
                cum_log_prob=(offset + 1) * 1e-6,
                depth=node.depth + 1,
                parent=node,
                tactic=tactic,
            )
            seen.add(child.key)
            stats.nodes_created += 1
            if check.state.is_complete():
                # The prefix already closes the proof (possible when a
                # timed-out search is resumed with a longer budget).
                node = child
                break
            frontier.push(child)
            node = child

        tracer = self.tracer

        # Failure frontier: the deepest (then best-scoring) node whose
        # expansion produced a rejection/timeout, with the top-ranked
        # offending candidate — what a repair round feeds back.
        best_fail: Optional[FailureContext] = None
        best_fail_rank = (-1, 0.0)

        def finish(status: Status, tactics=None) -> SearchResult:
            stats.wall_seconds = self.clock() - started
            if tracer.enabled:
                search_span.set(
                    status=status.value,
                    queries=stats.queries,
                    fuel=config.fuel,
                    nodes_created=stats.nodes_created,
                    nodes_expanded=stats.nodes_expanded,
                    rejected=stats.rejected,
                    duplicates=stats.duplicates,
                    timeouts=stats.timeouts,
                )
            return SearchResult(
                status=status,
                theorem_name=theorem_name,
                tactics=list(tactics or []),
                stats=stats,
                failure=None if status is Status.PROVED else best_fail,
            )

        def process_candidates(node, candidates, event) -> Optional[Node]:
            """Validate one expansion's candidates in rank order.

            Pushes valid children, maintains the failure frontier, and
            returns the proof-completing child if one appears.  The
            checker call sequence is the determinism-sensitive part.
            """
            nonlocal best_fail, best_fail_rank
            node_fail: Optional[Tuple[str, str, str]] = None
            for candidate in candidates:
                stats.candidates += 1
                check = self.checker.check(
                    node.state,
                    candidate.tactic,
                    seen_keys=seen if config.dedup_states else None,
                )
                if event is not None:
                    event.candidates.append(
                        CandidateEvent(
                            tactic=candidate.tactic,
                            log_prob=candidate.log_prob,
                            verdict=check.verdict.value,
                            message=check.message,
                        )
                    )
                if check.verdict is Verdict.REJECTED:
                    stats.rejected += 1
                    if node_fail is None:
                        node_fail = (
                            candidate.tactic,
                            check.message,
                            check.verdict.value,
                        )
                    continue
                if check.verdict is Verdict.DUPLICATE:
                    stats.duplicates += 1
                    continue
                if check.verdict is Verdict.TIMEOUT:
                    stats.timeouts += 1
                    if node_fail is None:
                        node_fail = (
                            candidate.tactic,
                            check.message,
                            check.verdict.value,
                        )
                    continue
                assert check.state is not None
                child = Node(
                    state=check.state,
                    key=self.checker.state_key(check.state),
                    cum_log_prob=node.cum_log_prob + candidate.log_prob,
                    depth=node.depth + 1,
                    parent=node,
                    tactic=candidate.tactic,
                )
                seen.add(child.key)
                stats.nodes_created += 1
                if check.state.is_complete():
                    return child
                if child.depth < config.max_depth:
                    frontier.push(child)

            if (node_fail is None or not node_fail[0].strip()) and all(
                not candidate.tactic.strip() for candidate in candidates
            ):
                # Zero-candidate expansion (empty list, or only blank
                # tactics — e.g. repair feedback suppressed everything
                # the model had): without a recorded failure this node
                # would leave the search STUCK with failure=None and
                # therefore repair-ineligible.  Record a sentinel so
                # the failure frontier survives.
                node_fail = (
                    NO_CANDIDATES_TACTIC,
                    "model returned no usable candidates",
                    Verdict.REJECTED.value,
                )

            if node_fail is not None:
                rank = (node.depth, node.cum_log_prob)
                if rank > best_fail_rank:
                    best_fail_rank = rank
                    tactic, message, verdict = node_fail
                    best_fail = FailureContext(
                        prefix=tuple(node.tactics_from_root()),
                        goal=node.state.render()[:1000],
                        depth=node.depth,
                        failed_tactic=tactic,
                        message=message,
                        verdict=verdict,
                    )
            return None

        if node is not root and node.state.is_complete():
            with tracer.span("search", theorem=theorem_name) as search_span:
                return finish(Status.PROVED, node.tactics_from_root())

        # Rounds in reservation order: ``inflight`` holds the started
        # ones (node + generation handle), ``fresh`` the nodes reserved
        # this iteration whose prompts are not built yet.
        inflight: Deque[Tuple[Node, GenerationHandle]] = deque()
        fresh: List[Node] = []

        def release_reserved() -> None:
            # Newest first restores the exact frontier (see
            # repro.core.frontier docstring).
            for reserved in reversed(fresh):
                frontier.release(reserved)
            for reserved, _handle in reversed(inflight):
                frontier.release(reserved)

        pipeline = GenerationPipeline(
            self.generate,
            config.pipeline_depth,
            submit_fn=self._resolve_submit_fn(),
        )
        search_span = tracer.span("search", theorem=theorem_name)
        with search_span, pipeline:
            while True:
                # Reserve nodes for the free slots.  The per-theorem
                # deadline is polled once per reservation — individual
                # tactics are already bounded by the tactic timeout, so
                # this caps the overrun at one expansion's work.  Fuel
                # is checked *before* reserving (counting reserved but
                # unqueried rounds): on FUELOUT the next node stays in
                # the frontier, a faithful picture of the unexpanded
                # tree for resume/diagnostics.
                while len(inflight) + len(fresh) < config.pipeline_depth:
                    if deadline is not None and deadline.expired():
                        release_reserved()
                        return finish(Status.TIMEOUT)
                    if stats.queries + len(fresh) >= config.fuel:
                        break
                    with tracer.span("select") as select_span:
                        node = frontier.reserve()
                        if tracer.enabled and node is not None:
                            select_span.set(
                                depth=node.depth,
                                score=round(node.cum_log_prob, 6),
                                round=stats.queries + len(fresh),
                            )
                    if node is None:
                        break
                    fresh.append(node)

                if not fresh and not inflight:
                    # Nothing running and nothing startable: terminal.
                    if stats.queries >= config.fuel:
                        return finish(Status.FUELOUT)
                    return finish(Status.STUCK)

                # Expansion of the oldest round: one model query.
                with tracer.span("expand") as expand_span:
                    prompts = []
                    for reserved in fresh:
                        with tracer.span("prompt_build", round=stats.queries):
                            prompts.append(
                                prompt_fn(
                                    reserved.state,
                                    reserved.tactics_from_root(),
                                )
                            )
                        stats.queries += 1
                    node = inflight[0][0] if inflight else fresh[0]
                    if tracer.enabled:
                        # Whitespace-collapsed so the one-line preview
                        # renders cleanly in the trace tree.
                        goal = " ".join(node.state.render().split())
                        expand_span.set(
                            query=stats.nodes_expanded + 1,
                            fuel=config.fuel,
                            depth=node.depth,
                            score=round(node.cum_log_prob, 6),
                            goal=goal[:160],
                            round=stats.nodes_expanded,
                            inflight=len(inflight) + len(fresh),
                        )
                    with tracer.span("generation") as generation_span:
                        # Start the new rounds (at depth 1 the call runs
                        # inline, here), then wait for the oldest only:
                        # the younger rounds keep generating meanwhile.
                        for reserved, prompt in zip(fresh, prompts):
                            handle = pipeline.submit(prompt, config.width)
                            inflight.append((reserved, handle))
                        fresh.clear()
                        node, handle = inflight.popleft()
                        candidates = handle.result()
                        if tracer.enabled:
                            generation_span.set(candidates=len(candidates))
                    frontier.commit(node)
                    node.expanded = True
                    stats.nodes_expanded += 1

                    event = None
                    if transcript is not None:
                        event = ExpansionEvent(
                            node_depth=node.depth,
                            node_score=node.cum_log_prob,
                            goal_preview=node.state.render()[:200],
                        )

                    proved = process_candidates(node, candidates, event)
                    if proved is not None:
                        if event is not None:
                            transcript.record(event)
                        release_reserved()
                        return finish(
                            Status.PROVED, proved.tactics_from_root()
                        )

                if event is not None:
                    transcript.record(event)
