"""Fault-tolerant wrapper around any :class:`TacticGenerator`.

`llm/interface.py` is the drop-in point for a real GPT-4o/Gemini API,
and real model endpoints fail: transient 5xx errors, 429 rate limits,
stalled connections, truncated payloads.  :class:`ResilientGenerator`
gives the search engine the retry/timeout discipline such an endpoint
needs, without the engine knowing anything changed:

* **per-query timeouts** — post-hoc via an injectable monotonic clock;
* **bounded retries** with exponential backoff and *deterministic*
  jitter (a hash of the model, prompt and retry number, not an RNG —
  two identical runs sleep identically);
* a **circuit breaker** — after ``breaker_threshold`` consecutive
  primary failures the primary is skipped entirely for
  ``breaker_cooldown`` seconds, then probed half-open;
* **graceful degradation** — while the breaker is open (or when
  retries are exhausted) queries are served by a configurable fallback
  generator instead of failing the whole search.

The backoff rule and the breaker are the shared primitives of
:mod:`repro.resilience`.  The clock and sleep functions are
injectable, so every timing path is unit-testable with a fake clock
and **no real sleeps**.  All activity is surfaced as metrics counters
(``llm.retries``, ``llm.breaker_opens``, ``llm.fallback_queries``, …)
through the duck-typed sink used by the rest of the pipeline
(:class:`repro.eval.instrumentation.Metrics`).

Determinism note: the wrapper never alters a successful response, so
a run whose faults are all transient produces bit-identical candidates
— and therefore bit-identical outcome records — to a fault-free run.
The eval runner builds one wrapper per task, so breaker state can
never leak between tasks (records stay order-independent).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import (
    GenerationTimeout,
    ModelExhaustedError,
    RateLimitError,
    TransientModelError,
)
from repro.llm.interface import (
    Candidate,
    GenerationRequest,
    TacticGenerator,
)
from repro.resilience import CircuitBreaker, backoff, stable_jitter

__all__ = ["RetryPolicy", "ResilientGenerator", "stable_jitter"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry, timeout, and circuit-breaker knobs."""

    max_attempts: int = 4  # total tries per query against the primary
    base_delay: float = 0.05  # seconds before the first retry
    max_delay: float = 2.0  # cap on any single backoff sleep
    jitter: float = 0.25  # max extra delay, as a fraction of the delay
    rate_limit_delay: float = 0.5  # backoff floor after a 429
    query_timeout: Optional[float] = 30.0  # per-query budget (seconds)
    breaker_threshold: int = 5  # consecutive failures that open it
    breaker_cooldown: float = 30.0  # seconds open before half-open


class ResilientGenerator:
    """Retry/timeout/breaker/fallback discipline for a generator.

    Satisfies :class:`~repro.llm.interface.TacticGenerator` itself, so
    it drops into :class:`~repro.core.search.BestFirstSearch` in place
    of the raw model.
    """

    def __init__(
        self,
        primary: TacticGenerator,
        fallback: Optional[TacticGenerator] = None,
        policy: Optional[RetryPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        metrics=None,
    ) -> None:
        self.primary = primary
        self.fallback = fallback
        self.policy = policy or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.metrics = metrics
        # TacticGenerator surface, delegated from the primary.
        self.name = primary.name
        self.context_window = primary.context_window
        self.provides_log_probs = getattr(
            primary, "provides_log_probs", False
        )
        # The lock keeps the breaker coherent when the pipelined
        # search drives one wrapper from several generation threads;
        # the single-threaded paths pay one uncontended acquire.
        self._breaker_lock = threading.Lock()
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold,
            self.policy.breaker_cooldown,
            clock,
        )

    # ------------------------------------------------------------------
    # Breaker bookkeeping
    # ------------------------------------------------------------------

    def breaker_open(self) -> bool:
        """True while the primary is being skipped entirely."""
        with self._breaker_lock:
            return self.breaker.is_open()

    def _note_failure(self) -> bool:
        """Count one primary failure; True while the breaker is open."""
        with self._breaker_lock:
            self._incr("llm.primary_failures")
            if self.breaker.record_failure():
                self._incr("llm.breaker_opens")
            return self.breaker.is_open()

    def _note_success(self) -> None:
        with self._breaker_lock:
            self.breaker.record_success()

    def _incr(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.incr(name)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def generate(self, prompt: str, k: int) -> List[Candidate]:
        if self.breaker_open():
            return self._degrade(prompt, k, None, 0)
        policy = self.policy
        last_error: Optional[TransientModelError] = None
        attempts = 0
        while attempts < policy.max_attempts:
            if attempts:
                self._incr("llm.retries")
                retry = attempts - 1
                self.sleep(
                    backoff(
                        retry,
                        self.name,
                        prompt,
                        retry,
                        base=policy.base_delay,
                        cap=policy.max_delay,
                        jitter=policy.jitter,
                        floor=(
                            policy.rate_limit_delay
                            if isinstance(last_error, RateLimitError)
                            else 0.0
                        ),
                    )
                )
            attempts += 1
            try:
                result = self._call_primary(prompt, k)
            except TransientModelError as exc:
                last_error = exc
                if self._note_failure():
                    break  # tripped mid-query: stop hammering
                continue
            self._note_success()
            return result
        return self._degrade(prompt, k, last_error, attempts)

    def generate_batch(
        self, requests: "List[GenerationRequest]"
    ) -> List[List[Candidate]]:
        """Element-wise batched generation under the retry discipline.

        Each element goes through the full :meth:`generate` path —
        per-query timeout, retries, breaker, fallback — so one failing
        element degrades alone instead of poisoning the batch.  This
        trades away cross-element amortization, which is why the
        service stacks the micro-batcher *below* this wrapper (one
        resilient wrapper per job, one shared batcher per model).
        """
        return [self.generate(prompt, k) for prompt, k in requests]

    def _call_primary(self, prompt: str, k: int) -> List[Candidate]:
        timeout = self.policy.query_timeout
        started = self.clock()
        result = self.primary.generate(prompt, k)
        if timeout is not None and self.clock() - started > timeout:
            # The call returned, but only after blowing its budget — a
            # real client would have abandoned it (stalled connection).
            raise GenerationTimeout(
                f"model query exceeded its {timeout:g}s budget"
            )
        return result

    def _degrade(
        self,
        prompt: str,
        k: int,
        last_error: Optional[Exception],
        attempts: int,
    ) -> List[Candidate]:
        if self.fallback is not None:
            self._incr("llm.fallback_queries")
            return self.fallback.generate(prompt, k)
        if last_error is not None:
            raise ModelExhaustedError(
                f"primary model {self.name} failed after {attempts} "
                f"attempts and no fallback is configured: {last_error}"
            ) from last_error
        raise ModelExhaustedError(
            f"circuit breaker open for {self.name} and no fallback is "
            "configured"
        )
