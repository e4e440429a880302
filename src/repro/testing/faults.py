"""Seeded, deterministic fault injection for chaos sweeps.

A :class:`FaultPlan` describes *which* faults to inject and *how
often*; wrappers apply it to any generator or checker.  Every decision
is a pure function of ``(plan.seed, wrapper context, operation
payload, attempt number)`` — no RNG state, no wall clock — so a chaos
sweep is bit-reproducible: the same plan injects the same faults at
the same points regardless of executor backend, worker count, or task
order.

Plans come from the CLI (``--faults SPEC``) or the environment
(``REPRO_FAULTS``), with a comma-separated ``key=value`` spec::

    seed=7,transient=0.2,ratelimit=0.1,stall=0.05,malformed=0.1

Fault kinds
-----------

* ``transient`` — the model call raises a retryable 5xx-style error;
* ``ratelimit`` — a 429-style error (retryable, longer backoff floor);
* ``stall`` — the call sleeps ``stall_seconds`` before answering (the
  resilient wrapper's per-query timeout turns a long stall into a
  retryable :class:`~repro.errors.GenerationTimeout`);
* ``malformed`` / ``truncate`` — the response payload is garbage or
  cut short and cannot be decoded into candidates (retryable: the
  corruption is transport-level, a re-query returns the intact body);
* ``crash`` — the *worker process* executing the task dies on its
  first attempt (``os._exit``); the executor's retry path must make
  this invisible;
* ``kill=<glob>`` — a *permanent* worker killer: every attempt of any
  task whose theorem name matches dies, so the sweep must finish with
  exactly those tasks recorded as ``CRASH``;
* ``initfail=1`` — the process-pool worker initializer itself raises,
  exercising the executor's actionable startup error.

Faulted model calls fail at most ``max_failures`` consecutive times
per prompt and then succeed, so a retrying client sees *transient*
faults (keep ``max_failures`` below the retry budget for
invisibility); ``kill`` and ``initfail`` are permanent by design.

Every decision draws from :func:`repro.resilience.stable_jitter`, the
same seeded hash that jitters retry backoff.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path as _Path
from typing import Callable, Dict, Optional

from repro.errors import (
    MalformedResponseError,
    RateLimitError,
    TransientModelError,
)
from repro.resilience import stable_jitter

__all__ = [
    "FaultPlan",
    "FaultyGenerator",
    "FaultyChecker",
    "ClusterFaultPlan",
    "FAULTS_ENV_VAR",
    "CLUSTER_FAULTS_ENV_VAR",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"
CLUSTER_FAULTS_ENV_VAR = "REPRO_CLUSTER_FAULTS"

_RATE_KINDS = ("transient", "ratelimit", "stall", "malformed", "truncate")


# How a spec value is cast, by the annotation of its plan field.
_CASTS: Dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "bool": lambda value: value not in ("0", "false", "no", ""),
    "Optional[str]": str,
}


def _parse_spec(cls, spec: str, unknown: str):
    """Build the plan dataclass ``cls`` from a ``key=value,...`` spec.

    ``unknown`` names what an unrecognised key is, in the error.
    """
    types = {f.name: f.type for f in fields(cls)}
    kwargs: Dict[str, object] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(
                f"bad {cls.__name__} spec token {token!r} "
                "(expected key=value)"
            )
        key, _, value = token.partition("=")
        key = key.strip()
        if key not in types:
            raise ValueError(
                f"unknown {unknown} {key!r}; known keys: "
                f"{', '.join(sorted(types))}"
            )
        kwargs[key] = _CASTS[types[key]](value.strip())
    return cls(**kwargs)


def _spec_or_env(spec: Optional[str], env_var: str) -> Optional[str]:
    """The spec string, else the environment's; None when neither."""
    return spec or os.environ.get(env_var) or None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of the faults to inject."""

    seed: int = 0
    transient: float = 0.0  # rate of 5xx-style failures
    ratelimit: float = 0.0  # rate of 429-style failures
    stall: float = 0.0  # rate of slow calls
    malformed: float = 0.0  # rate of undecodable payloads
    truncate: float = 0.0  # rate of cut-short payloads
    crash: float = 0.0  # rate of first-attempt worker deaths
    kill: Optional[str] = None  # permanent killer: theorem-name glob
    initfail: bool = False  # worker initializer raises
    stall_seconds: float = 0.05  # duration of one injected stall
    max_failures: int = 2  # consecutive model-call faults per prompt

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse a ``key=value,key=value`` spec string."""
        plan = _parse_spec(FaultPlan, spec, "fault kind")
        for kind in _RATE_KINDS + ("crash",):
            rate = getattr(plan, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {kind}={rate} outside [0, 1]")
        return plan

    @staticmethod
    def from_spec(spec: Optional[str]) -> Optional["FaultPlan"]:
        """Build a plan from a spec string, falling back to the
        ``REPRO_FAULTS`` environment variable; None when neither is
        set (the common, fault-free case)."""
        spec = _spec_or_env(spec, FAULTS_ENV_VAR)
        return None if spec is None else FaultPlan.parse(spec)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def model_faults_active(self) -> bool:
        return any(getattr(self, kind) > 0.0 for kind in _RATE_KINDS)

    def model_fault_for(self, context: str, prompt: str) -> Optional[str]:
        """The fault kind scheduled for this model call, if any.

        The decision hashes (seed, context, prompt): one prompt is
        either always faulted (with one kind) or never — which is what
        makes retried queries meaningful.
        """
        frac = stable_jitter(self.seed, "model", context, prompt)
        floor = 0.0
        for kind in _RATE_KINDS:
            rate = getattr(self, kind)
            if rate and frac < floor + rate:
                return kind
            floor += rate
        return None

    def failures_for(self, context: str, prompt: str) -> int:
        """How many consecutive times this prompt's calls fail before
        succeeding (1..max_failures)."""
        if self.max_failures <= 1:
            return 1
        frac = stable_jitter(self.seed, "failures", context, prompt)
        return 1 + int(frac * self.max_failures) % self.max_failures

    def should_kill_worker(self, theorem: str, attempt: int) -> bool:
        """Whether the worker executing (theorem, attempt) should die.

        ``kill`` globs are permanent (every attempt dies — the task can
        only end as CRASH); ``crash``-rate deaths hit the first attempt
        only, so the executor's retry makes them invisible.
        """
        if self.kill and fnmatch.fnmatchcase(theorem, self.kill):
            return True
        if self.crash and attempt == 0:
            return stable_jitter(self.seed, "crash", theorem) < self.crash
        return False

    def describe(self) -> str:
        active = [
            f"{kind}={getattr(self, kind):g}"
            for kind in _RATE_KINDS + ("crash",)
            if getattr(self, kind)
        ]
        if self.kill:
            active.append(f"kill={self.kill}")
        if self.initfail:
            active.append("initfail=1")
        return f"FaultPlan(seed={self.seed}, {', '.join(active) or 'no-op'})"


class FaultyGenerator:
    """A :class:`TacticGenerator` that injects the plan's model faults.

    ``context`` should identify the task (theorem, model, setting) so
    two tasks querying with identical prompt text still draw
    independent fault decisions.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        context: str = "",
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.context = context
        self.sleep = sleep
        self.name = inner.name
        self.context_window = inner.context_window
        self.provides_log_probs = getattr(inner, "provides_log_probs", False)
        self._failures_so_far: Dict[str, int] = {}

    def generate(self, prompt: str, k: int):
        kind = self.plan.model_fault_for(self.context, prompt)
        if kind is not None:
            key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
            done = self._failures_so_far.get(key, 0)
            if done < self.plan.failures_for(self.context, prompt):
                self._failures_so_far[key] = done + 1
                self._inject(kind)
        return self.inner.generate(prompt, k)

    def _inject(self, kind: str) -> None:
        if kind == "transient":
            raise TransientModelError(
                "injected transient failure (HTTP 500: upstream hiccup)"
            )
        if kind == "ratelimit":
            raise RateLimitError(
                "injected rate limit (HTTP 429: retry later)"
            )
        if kind == "stall":
            # A slow-but-eventually-successful call: the injected sleep
            # burns wall-clock, then the call proceeds normally.  A
            # resilient client whose per-query budget is smaller than
            # the stall classifies it as a GenerationTimeout and
            # retries.
            self.sleep(self.plan.stall_seconds)
            return
        if kind == "malformed":
            raise MalformedResponseError(
                'injected malformed payload: "{\\"candidates\\": [\\"appl'
            )
        if kind == "truncate":
            raise MalformedResponseError(
                "injected truncated response (connection reset mid-body)"
            )
        raise AssertionError(f"unknown fault kind: {kind}")


@dataclass(frozen=True)
class ClusterFaultPlan:
    """Seeded faults at the *cluster* level: whole-worker deaths,
    shard stalls, and journal corruption.

    Unlike :class:`FaultPlan`'s ``kill`` (permanent by design — the
    task must end CRASH), a cluster ``kill_job`` is *recoverable*: the
    worker process executing a matching theorem dies ``kill_times``
    times and then succeeds, so the supervisor's restart + the
    router's re-dispatch must make the death invisible in the final
    records.  Death counting is cross-process (the worker that dies is
    not the one that retries), so it lives in marker files under a
    shared ``state_dir`` rather than in memory.

    Spec syntax mirrors :class:`FaultPlan` (``key=value,...``), read
    from ``--cluster-faults`` or ``REPRO_CLUSTER_FAULTS``::

        seed=7,kill_job=rev_*,kill_times=1,stall_job=app_*,stall_seconds=0.2

    ``corrupt_journal`` is consumed by the chaos *harness* (not the
    workers): it names the 0-based journal line the harness flips a
    byte in between runs, exercising quarantine-on-load.
    """

    seed: int = 0
    kill_job: Optional[str] = None  # theorem glob: worker dies mid-job
    kill_times: int = 1  # deaths before the job is allowed to finish
    stall_job: Optional[str] = None  # theorem glob: execution stalls
    stall_seconds: float = 0.2  # duration of one injected stall
    corrupt_journal: int = -1  # harness-side: journal line to corrupt

    @staticmethod
    def parse(spec: str) -> "ClusterFaultPlan":
        return _parse_spec(ClusterFaultPlan, spec, "cluster fault")

    @staticmethod
    def from_spec(spec: Optional[str]) -> Optional["ClusterFaultPlan"]:
        spec = _spec_or_env(spec, CLUSTER_FAULTS_ENV_VAR)
        return None if spec is None else ClusterFaultPlan.parse(spec)

    def to_spec(self) -> str:
        """A spec string that parses back to this plan (worker handoff)."""
        parts = [f"seed={self.seed}"]
        if self.kill_job:
            parts.append(f"kill_job={self.kill_job}")
            parts.append(f"kill_times={self.kill_times}")
        if self.stall_job:
            parts.append(f"stall_job={self.stall_job}")
            parts.append(f"stall_seconds={self.stall_seconds:g}")
        if self.corrupt_journal >= 0:
            parts.append(f"corrupt_journal={self.corrupt_journal}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    # Decisions (made inside worker processes)
    # ------------------------------------------------------------------

    def should_die(self, theorem: str, state_dir) -> bool:
        """Whether the worker executing ``theorem`` should die *now*.

        Marker files under ``state_dir`` count prior deaths: each True
        decision drops one marker first (exclusive create, so two
        workers racing the same theorem cannot double-count), and once
        ``kill_times`` markers exist the theorem executes normally —
        the recoverable-crash shape the recovery contract needs.
        """
        if not self.kill_job or not fnmatch.fnmatchcase(
            theorem, self.kill_job
        ):
            return False
        tag = hashlib.sha256(theorem.encode("utf-8")).hexdigest()[:12]
        root = _Path(state_dir)
        root.mkdir(parents=True, exist_ok=True)
        for death in range(self.kill_times):
            marker = root / f"killed-{tag}-{death}"
            try:
                with open(marker, "x", encoding="utf-8"):
                    pass
                return True
            except FileExistsError:
                continue  # this death already happened; try the next
        return False

    def stall_for(self, theorem: str) -> float:
        """Injected execution stall (seconds) for ``theorem``."""
        if self.stall_job and fnmatch.fnmatchcase(theorem, self.stall_job):
            return self.stall_seconds
        return 0.0

    def describe(self) -> str:
        active = []
        if self.kill_job:
            active.append(
                f"kill_job={self.kill_job} x{self.kill_times}"
            )
        if self.stall_job:
            active.append(
                f"stall_job={self.stall_job} ({self.stall_seconds:g}s)"
            )
        if self.corrupt_journal >= 0:
            active.append(f"corrupt_journal={self.corrupt_journal}")
        return (
            f"ClusterFaultPlan(seed={self.seed}, "
            f"{', '.join(active) or 'no-op'})"
        )


class FaultyChecker:
    """A checker wrapper that injects stalls into tactic validation.

    Used to drive the deadline-enforcement paths: with a shared fake
    clock whose ``sleep`` advances it, an injected stall makes the
    checker's own :class:`~repro.deadline.Deadline` expire and the
    verdict come back TIMEOUT — no real time passes in tests.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.sleep = sleep

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def check(self, state, tactic_text: str, seen_keys=None):
        if self.plan.stall and stable_jitter(
            self.plan.seed, "checker", tactic_text
        ) < self.plan.stall:
            self.sleep(self.plan.stall_seconds)
        return self.inner.check(state, tactic_text, seen_keys=seen_keys)
