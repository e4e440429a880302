"""Bounded in-flight generation with in-order commit.

At depth 1 the best-first loop alternates *generate* (one blocking
model query) and *validate* (checker calls), so the checker idles
during every generation round-trip and the model idles during every
validation pass.  :class:`GenerationPipeline` overlaps them at depth
``k >= 2``: the search keeps up to ``k`` generation calls in flight
and validates the oldest finished expansion while the younger ones
are still being generated.

Determinism contract (hard): results are **committed in submission
order** — the pipeline is a reorder buffer keyed by the round sequence
number assigned at :meth:`submit`.  Completion order (thread timing,
batch composition) is unobservable: the search validates round *i*'s
candidates before it looks at round *i+1*'s, so the tree — and with it
every outcome record — evolves as a pure function of the selection
sequence.  With ``depth=1`` the pipeline degenerates to a plain call:
``submit`` executes it inline on the caller's thread (no worker, no
queue, errors raise at the call site), so a depth-1 search is the
classic select/expand alternation.

Execution backends, chosen per submission source:

* ``submit_fn`` (preferred) — an async handle factory such as
  :meth:`repro.service.batching.BatchingGenerator.submit`; concurrency
  then lives in the batcher's dispatcher thread and co-travelling
  rounds coalesce into one ``generate_batch`` round-trip;
* a private thread pool of ``depth`` workers calling the blocking
  ``generate_fn`` — the fallback when the generator has no async
  surface.  Worker threads touch only prompt strings and candidate
  lists; all kernel/checker work stays on the search thread.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Optional, Sequence

__all__ = ["GenerationHandle", "GenerationPipeline"]


class GenerationHandle:
    """One in-flight generation round: its sequence number + result.

    ``result()`` blocks until the round's candidates are available and
    re-raises the call's exception, if any — in the caller's thread,
    at commit time, so failures surface in deterministic (submission)
    order no matter when they actually happened.
    """

    __slots__ = ("seq", "_value", "_error", "_future")

    def __init__(
        self,
        seq: int,
        value: Optional[Sequence] = None,
        future: Optional["Future"] = None,
    ) -> None:
        self.seq = seq
        self._value = value
        self._error: Optional[BaseException] = None
        self._future = future

    def result(self) -> Sequence:
        if self._future is not None:
            return self._future.result()
        if self._error is not None:
            raise self._error
        return self._value  # type: ignore[return-value]


class GenerationPipeline:
    """Issues generation calls with at most ``depth`` in flight.

    The *caller* enforces the in-flight bound (it holds the handles);
    the pipeline provides ordered submission and an execution backend.
    ``depth == 1`` is the degenerate inline mode: no thread is ever
    created and ``submit`` runs the call inline.
    """

    def __init__(
        self,
        generate_fn: Callable[[str, int], Sequence],
        depth: int,
        submit_fn: Optional[Callable[[str, int], object]] = None,
    ) -> None:
        if depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        self.generate_fn = generate_fn
        self.depth = depth
        self.submit_fn = submit_fn if depth > 1 else None
        self._seq = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    def submit(self, prompt: str, k: int) -> GenerationHandle:
        """Start one generation round; returns its ordered handle."""
        seq = self._seq
        self._seq += 1
        if self.depth == 1:
            # Inline mode: an error raises here, inside the search's
            # ``generation`` span, like any blocking ``generate`` call.
            return GenerationHandle(seq, value=self.generate_fn(prompt, k))
        if self.submit_fn is not None:
            pending = self.submit_fn(prompt, k)
            handle = GenerationHandle(seq)
            handle._future = pending  # duck-typed: has .result()
            return handle
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.depth,
                thread_name_prefix="genpipe",
            )
        return GenerationHandle(
            seq, future=self._pool.submit(self.generate_fn, prompt, k)
        )

    def close(self) -> None:
        """Stop the worker pool (started rounds run to completion)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def __enter__(self) -> "GenerationPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
