"""The supervised multi-process prover cluster.

A thin **router** in front of N forked worker processes (each a full
single-process :class:`~repro.service.server.ProverService` — own
kernel arena, micro-batcher, scheduler, proof-cache shard), under a
:class:`~repro.service.supervisor.Supervisor` that health-probes,
restarts, and circuit-breaks them.  This is the client/server/executor
tier split of CodeV-SVA applied to the prover: the router owns
admission, placement, and durability; the workers own execution.

**Placement** is consistent hashing: a job's routing key (the task's
:meth:`~repro.eval.tasks.TheoremTask.cache_key`, or a content hash of
a raw-``goal`` body) lands on a hash ring with virtual nodes, so each
worker's proof-cache shard sees a stable key range, and an unroutable
worker's range flows to the next healthy sibling instead of
rehashing the world.

**Durability** is a write-ahead job journal
(:mod:`repro.service.journal`): ``admitted`` before the caller sees
202, ``dispatched`` per placement, ``done``/``failed`` terminally.  A
crashed worker re-dispatches; a full router restart replays every
unfinished job; and because a task's outcome is a pure function of
its cache key, the replayed records are byte-identical to a
fault-free run — the same determinism contract the golden stores
enforce.

**Graceful degradation** is a ladder driven by supervisor health::

    0 healthy     all routes normal
    1 shed_adhoc  some workers down -> raw-`goal` requests shed (429)
    2 cache_only  no routable workers -> proof-cache hits only (503 else)
    3 draining    SIGTERM/close -> refuse all new work (503)

``/healthz`` carries an explicit ``degraded`` marker + ladder name;
``/metrics`` exports ``repro_cluster_degraded`` and the supervision
counters (``repro_cluster_worker_restarts_total``, journal replay and
quarantine tallies).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.eval.instrumentation import Metrics
from repro.eval.store import OutcomeRecord
from repro.eval.tasks import CACHE_KEY_VERSION, task_from_json
from repro.llm import get_model
from repro.errors import GenerationError
from repro.obs.prometheus import render_prometheus
from repro.service.client import (
    ProverClient,
    ProverServiceError,
    ProverTransportError,
)
from repro.service.journal import JobJournal
from repro.service.proofcache import ProofCache
from repro.service.server import build_http_server, install_sigterm_drain
from repro.service.supervisor import Supervisor, WorkerSpec

__all__ = [
    "ClusterConfig",
    "ClusterJob",
    "HashRing",
    "ProverCluster",
    "DEGRADATION_LADDER",
    "serve_cluster_forever",
]

DEGRADATION_LADDER = ("healthy", "shed_adhoc", "cache_only", "draining")


@dataclass(frozen=True)
class ClusterConfig:
    """Router + fleet knobs (worker knobs fan out into WorkerSpecs)."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 2  # worker *processes*
    threads: int = 4  # concurrent searches per worker
    worker_max_queued: int = 64
    batch_window: float = 0.01
    max_batch_size: int = 8
    # Durability roots.  ``state_dir`` holds the journal, the router
    # proof cache, and one proof-cache shard per worker; explicit
    # paths override the derived ones.
    state_dir: Optional[str] = None
    journal_path: Optional[str] = None
    default_deadline: Optional[float] = None
    fast: bool = True
    query_overhead: float = 0.0
    # Placement / admission.
    vnodes: int = 64  # ring points per worker
    max_inflight: int = 256  # unfinished router jobs before 429
    redispatch_limit: int = 5  # per-job placement attempts after loss
    dispatch_wait: float = 30.0  # seconds to wait for a routable worker
    poll: float = 2.0  # router->worker long-poll per round
    # Chaos (see testing/faults.ClusterFaultPlan).
    cluster_faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("cluster needs at least 1 worker process")


class HashRing:
    """Consistent hashing with virtual nodes over worker indices."""

    def __init__(self, size: int, vnodes: int = 64) -> None:
        self.size = size
        points: List[Tuple[int, int]] = []
        for index in range(size):
            for v in range(vnodes):
                digest = hashlib.sha256(
                    f"worker-{index}#{v}".encode("utf-8")
                ).hexdigest()
                points.append((int(digest[:16], 16), index))
        points.sort()
        self._points = points

    @staticmethod
    def point_for(key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return int(digest[:16], 16)

    def lookup(self, key: str, routable) -> Optional[int]:
        """The first routable worker clockwise of ``key``'s point.

        Skipping unroutable workers is what reroutes a tripped shard's
        key range to its ring sibling — no table rebuild, no rehash.
        """
        if not self._points:
            return None
        start = bisect.bisect_left(self._points, (self.point_for(key), -1))
        seen: set = set()
        for step in range(len(self._points)):
            _, index = self._points[(start + step) % len(self._points)]
            if index in seen:
                continue
            seen.add(index)
            if routable(index):
                return index
            if len(seen) == self.size:
                break
        return None

    def owner(self, key: str) -> Optional[int]:
        """The key's home shard, ignoring health (stable placement)."""
        return self.lookup(key, lambda index: True)


class ClusterJob:
    """One admitted request and its routed lifecycle."""

    def __init__(self, job_id: str, body: dict, key: str, task=None) -> None:
        self.id = job_id
        self.body = body
        self.key = key
        self.task = task  # None for raw-`goal` bodies
        self.state = "admitted"  # admitted -> dispatched -> done|failed
        self.worker: Optional[int] = None
        self.worker_job: Optional[str] = None
        self.record: Optional[dict] = None
        self.error: Optional[str] = None
        self.cached = False
        self.replayed = False
        self.dedup_hits = 0
        self.redispatches = 0
        self.created_at = time.monotonic()
        self.finished_at: Optional[float] = None
        self.done = threading.Event()

    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def to_json(self) -> dict:
        now = time.monotonic()
        out = {
            "id": self.id,
            "state": self.state,
            "key": self.key,
            "worker": self.worker,
            "cached": self.cached,
            "replayed": self.replayed,
            "dedup_hits": self.dedup_hits,
            "redispatches": self.redispatches,
            "elapsed": (self.finished_at or now) - self.created_at,
        }
        if self.record is not None:
            out["record"] = self.record
        if self.error is not None:
            out["error"] = self.error
        return out


class _ClusterUnavailable(Exception):
    """No routable worker inside the dispatch budget."""


class ProverCluster:
    """Composition root: supervisor + ring + journal + router cache."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.metrics = Metrics()
        self.started_at = time.monotonic()
        state_dir = (
            Path(self.config.state_dir)
            if self.config.state_dir is not None
            else None
        )
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)
        self._state_dir = state_dir
        journal_path = self.config.journal_path or (
            str(state_dir / "journal.jsonl") if state_dir else None
        )
        self.journal: Optional[JobJournal] = (
            JobJournal(journal_path) if journal_path else None
        )
        self.cache = ProofCache(
            str(state_dir / "router-cache.jsonl") if state_dir else None,
            metrics=self.metrics,
        )
        specs = [
            WorkerSpec(
                index=index,
                host=self.config.host,
                threads=self.config.threads,
                max_queued=self.config.worker_max_queued,
                batch_window=self.config.batch_window,
                max_batch_size=self.config.max_batch_size,
                cache_path=(
                    str(state_dir / f"shard-{index}.jsonl")
                    if state_dir
                    else None
                ),
                default_deadline=self.config.default_deadline,
                query_overhead=self.config.query_overhead,
                fast=self.config.fast,
                cluster_faults=self.config.cluster_faults,
                state_dir=(
                    str(state_dir / "faults") if state_dir else None
                ),
            )
            for index in range(self.config.workers)
        ]
        self.supervisor = Supervisor(specs, metrics=self.metrics)
        self.ring = HashRing(self.config.workers, self.config.vnodes)
        self._lock = threading.RLock()
        self._jobs: Dict[str, ClusterJob] = {}
        self._by_key: Dict[str, ClusterJob] = {}  # unfinished only
        self._seq = 0
        self._draining = False
        self._aborted = False
        self._started = False
        self.replayed_jobs = 0
        # Seed the supervision counters so /metrics always exposes the
        # families (a scrape of a healthy cluster must show zeroes, not
        # absent series).
        for name in (
            "cluster.worker_restarts",
            "cluster.worker_deaths",
            "cluster.breaker_opens",
            "cluster.jobs.redispatched",
            "cluster.journal.replayed",
        ):
            self.metrics.incr(name, 0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Boot the fleet, then replay unfinished journaled jobs."""
        if self._started:
            return
        self._started = True
        self.supervisor.start()
        if self.journal is not None:
            self.metrics.incr(
                "cluster.journal.quarantined", self.journal.quarantined
            )
            self._replay()

    def _replay(self) -> None:
        """Rebuild router state from the journal after a restart.

        Finished jobs come back queryable (and re-warm the router
        cache); unfinished jobs — admitted or dispatched when the
        previous router died — are re-dispatched through the normal
        placement path.  Execution is the source of truth: a job that
        a worker actually finished but the router never journaled as
        ``done`` re-executes to the byte-identical record (or hits the
        worker's shard cache).
        """
        assert self.journal is not None
        for entry in self.journal.entries.values():
            number = _job_number(entry.job)
            if number is not None:
                self._seq = max(self._seq, number)
        for entry in self.journal.finished():
            if entry.body is None:
                continue
            job = ClusterJob(
                entry.job, entry.body, entry.key, _task_of(entry.body)
            )
            job.replayed = True
            if entry.record is not None:
                job.record = entry.record
                job.state = "done"
                if job.task is not None:
                    self.cache.put(
                        job.task, OutcomeRecord.from_json(entry.record)
                    )
            else:
                job.error = entry.error
                job.state = "failed"
            job.finished_at = job.created_at
            job.done.set()
            self._jobs[job.id] = job
        for entry in self.journal.pending():
            job = ClusterJob(
                entry.job, entry.body, entry.key, _task_of(entry.body)
            )
            job.replayed = True
            self._jobs[job.id] = job
            self._by_key[job.key] = job
            self.replayed_jobs += 1
            self.metrics.incr("cluster.journal.replayed")
            self._spawn_watcher(job)

    def close(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful drain: finish admitted jobs, then stop the fleet."""
        with self._lock:
            self._draining = True
            unfinished = [
                job for job in self._jobs.values() if not job.finished()
            ]
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        for job in unfinished:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not job.done.wait(remaining):
                drained = False
                break
        fleet_clean = self.supervisor.stop(
            timeout=None
            if deadline is None
            else max(1.0, deadline - time.monotonic())
        )
        return drained and fleet_clean

    def abort(self) -> None:
        """Crash-stop (chaos harness): SIGKILL the fleet, no drain.

        Leaves the journal with unfinished entries — exactly the state
        a power loss would — so a fresh cluster on the same state dir
        exercises full replay.  The abort flag freezes every watcher
        thread's journaling first: a zombie watcher of the dead router
        must never append terminal events to a journal a successor is
        about to replay.
        """
        with self._lock:
            self._draining = True
            self._aborted = True
        for index in range(self.supervisor.size()):
            self.supervisor.kill_worker(index)
        self.supervisor.stop(timeout=1.0)

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------

    def degradation_level(self) -> int:
        if self._draining:
            return 3
        healthy = self.supervisor.healthy_count()
        if healthy == 0:
            return 2
        if healthy < self.supervisor.size():
            return 1
        return 0

    # ------------------------------------------------------------------
    # Request handling (same transport-independent surface as
    # ProverService — build_http_server serves either)
    # ------------------------------------------------------------------

    def submit(self, body: dict) -> Tuple[int, dict]:
        """Handle a ``POST /prove`` body: ``(http_status, payload)``."""
        if not self._started:
            self.start()
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        level = self.degradation_level()
        if level >= 3:
            return 503, {
                "error": "cluster is draining; not accepting work",
                "degraded": DEGRADATION_LADDER[level],
            }
        body = dict(body)
        is_goal = "goal" in body
        if is_goal and level >= 1:
            # First rung of the ladder: ad-hoc goals re-elaborate on
            # every replay and cannot be cache-served, so they are the
            # first load shed when capacity degrades.
            self.metrics.incr("cluster.jobs.shed")
            return 429, {
                "error": "cluster degraded: raw-goal requests are "
                "shed until the fleet recovers; retry later",
                "degraded": DEGRADATION_LADDER[level],
            }
        task = None
        if is_goal:
            goal = body.get("goal")
            if not isinstance(goal, str) or not goal.strip():
                return 400, {"error": "'goal' must be a statement string"}
            key = "goal:" + hashlib.sha256(
                json.dumps(
                    body, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            ).hexdigest()
        else:
            if (
                self.config.default_deadline is not None
                and body.get("theorem_deadline") is None
            ):
                # Fold the cluster deadline in *before* keying (and
                # before the body ships to a worker) so a bounded cell
                # never aliases an unbounded one — same rule as the
                # scheduler's.
                body["theorem_deadline"] = self.config.default_deadline
            try:
                task = task_from_json(body)
            except ValueError as exc:
                return 400, {"error": str(exc)}
            try:
                get_model(task.model)
            except GenerationError as exc:
                return 400, {"error": str(exc)}
            key = task.cache_key()
            record = self.cache.get(key)
            if record is not None:
                job = self._make_job(body, key, task)
                job.cached = True
                job.record = record.to_json()
                job.state = "done"
                job.finished_at = time.monotonic()
                job.done.set()
                with self._lock:
                    self._jobs[job.id] = job
                self.metrics.incr("cluster.jobs.cache_hits")
                payload = {"job": job.id, "state": "done", "key": key,
                           "cached": True}
                payload.update(job.to_json())
                return 200, payload
        if level >= 2:
            return 503, {
                "error": "cluster degraded: no routable workers; "
                "serving proof-cache hits only",
                "degraded": DEGRADATION_LADDER[level],
            }
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None:
                existing.dedup_hits += 1
                self.metrics.incr("cluster.jobs.deduped")
                return 202, {
                    "job": existing.id,
                    "state": existing.state,
                    "key": key,
                    "cached": False,
                    "dedup_hits": existing.dedup_hits,
                }
            unfinished = sum(
                1 for job in self._jobs.values() if not job.finished()
            )
            if unfinished >= self.config.max_inflight:
                self.metrics.incr("cluster.jobs.rejected")
                return 429, {
                    "error": f"cluster at capacity "
                    f"({unfinished} jobs in flight); retry later"
                }
            job = self._make_job(body, key, task)
            self._jobs[job.id] = job
            self._by_key[key] = job
        # WAL ordering: the journal line lands before the caller ever
        # sees the job id — an admitted job can always be replayed.
        if self.journal is not None:
            self.journal.admitted(job.id, key, body)
        self.metrics.incr("cluster.jobs.admitted")
        self._spawn_watcher(job)
        return 202, {
            "job": job.id,
            "state": job.state,
            "key": key,
            "cached": False,
        }

    def _make_job(self, body, key, task) -> ClusterJob:
        with self._lock:  # RLock: submit's admission block holds it too
            self._seq += 1
            return ClusterJob(f"cj-{self._seq}", body, key, task)

    def job_status(
        self, job_id: str, wait: Optional[float] = None
    ) -> Tuple[int, dict]:
        job = self._jobs.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        if wait is not None and not job.finished():
            if not math.isfinite(wait):
                wait = 0.0
            job.done.wait(min(max(wait, 0.0), 60.0))
        return 200, job.to_json()

    def health(self) -> Tuple[int, dict]:
        level = self.degradation_level()
        status = (
            "ok"
            if level == 0
            else ("draining" if level >= 3 else "degraded")
        )
        return 200, {
            "status": status,
            "degraded": level > 0,
            "level": level,
            "ladder": DEGRADATION_LADDER[level],
            "uptime": time.monotonic() - self.started_at,
            "cache_key_version": CACHE_KEY_VERSION,
            "workers": {
                "total": self.supervisor.size(),
                "healthy": self.supervisor.healthy_count(),
                "states": self.supervisor.states(),
            },
        }

    def metrics_snapshot(self) -> Tuple[int, dict]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            inflight = sum(
                1 for job in self._jobs.values() if not job.finished()
            )
        cluster = {
            "degraded": self.degradation_level(),
            "ladder": DEGRADATION_LADDER[self.degradation_level()],
            "supervisor": self.supervisor.stats(),
            "journal": (
                self.journal.stats() if self.journal is not None else None
            ),
            "replayed_jobs": self.replayed_jobs,
            "jobs": states,
            "inflight": inflight,
            "max_inflight": self.config.max_inflight,
        }
        return 200, {
            "service": {
                "uptime": time.monotonic() - self.started_at,
                "cluster": cluster,
                "proof_cache": self.cache.stats(),
            },
            "metrics": self.metrics.snapshot(),
        }

    def metrics_text(self) -> Tuple[int, str]:
        _, snapshot = self.metrics_snapshot()
        return 200, render_prometheus(
            snapshot["metrics"], service=snapshot["service"]
        )

    # ------------------------------------------------------------------
    # Placement + completion watching
    # ------------------------------------------------------------------

    def _spawn_watcher(self, job: ClusterJob) -> None:
        thread = threading.Thread(
            target=self._run_job,
            args=(job,),
            name=f"cluster-watch-{job.id}",
            daemon=True,
        )
        thread.start()

    def _run_job(self, job: ClusterJob) -> None:
        """Drive one job to a terminal state, re-dispatching on loss."""
        try:
            while True:
                if self._aborted:
                    return  # crash-stop: freeze the job as-is
                if job.worker_job is None:
                    try:
                        finished_inline = self._dispatch(job)
                    except _ClusterUnavailable as exc:
                        self._fail(job, str(exc))
                        return
                    except ProverServiceError as exc:
                        # A worker *rejected* the job (bad goal, unknown
                        # theorem, …): terminal, not a fault.
                        self._fail(
                            job,
                            f"worker rejected job "
                            f"(HTTP {exc.status}): "
                            f"{exc.payload.get('error', exc.payload)}",
                        )
                        return
                    if finished_inline:
                        return
                assert job.worker is not None
                client = self.supervisor.client_for(job.worker)
                try:
                    status = client.job(
                        job.worker_job, wait=self.config.poll
                    )
                except (ProverTransportError, ProverServiceError) as exc:
                    lost = isinstance(exc, ProverTransportError) or (
                        isinstance(exc, ProverServiceError)
                        and exc.status == 404
                    )
                    if not lost:
                        self._fail(
                            job, f"worker status error: {exc}"
                        )
                        return
                    # The worker died (or restarted and forgot the
                    # job): report for the breaker, then re-place.
                    if isinstance(exc, ProverTransportError):
                        self.supervisor.report_failure(job.worker)
                    if not self._note_loss(job):
                        return
                    continue
                state = status.get("state")
                if state == "done":
                    self._finish(job, status.get("record"))
                    return
                if state == "failed":
                    self._fail(
                        job,
                        f"worker search failed: "
                        f"{status.get('error', 'unknown')}",
                    )
                    return
        except Exception as exc:  # noqa: BLE001 - watcher must not die
            self._fail(job, f"{type(exc).__name__}: {exc}")

    def _note_loss(self, job: ClusterJob) -> bool:
        """Account one lost placement; False = give the job up."""
        job.worker_job = None
        job.redispatches += 1
        self.metrics.incr("cluster.jobs.redispatched")
        if job.redispatches > self.config.redispatch_limit:
            self._fail(
                job,
                f"gave up after {job.redispatches} placements "
                f"(workers kept dying)",
            )
            return False
        return True

    def _dispatch(self, job: ClusterJob) -> bool:
        """Place ``job`` on a routable worker; True = finished inline.

        Waits (bounded) for a routable worker — a restarting fleet is
        a transient condition, not a failure — then submits.  Worker
        warm-cache hits complete the job without a watch loop.
        """
        deadline = time.monotonic() + self.config.dispatch_wait
        while True:
            if self._aborted:
                raise _ClusterUnavailable("cluster aborted")
            index = self.ring.lookup(job.key, self.supervisor.routable)
            if index is None:
                if time.monotonic() >= deadline:
                    raise _ClusterUnavailable(
                        "no routable worker within "
                        f"{self.config.dispatch_wait:g}s"
                    )
                time.sleep(0.1)
                continue
            client = self.supervisor.client_for(index)
            try:
                response = client.prove(**job.body)
            except ProverTransportError:
                self.supervisor.report_failure(index)
                if time.monotonic() >= deadline:
                    raise _ClusterUnavailable(
                        "every dispatch attempt failed at transport"
                    )
                continue
            except ProverServiceError as exc:
                if exc.status in (429, 503):
                    # Worker admission shed us: transient back-pressure.
                    if time.monotonic() >= deadline:
                        raise _ClusterUnavailable(
                            f"workers refusing work (HTTP {exc.status})"
                        )
                    time.sleep(0.1)
                    continue
                raise  # 400/404: terminal client error
            self.supervisor.report_success(index)
            job.worker = index
            job.worker_job = response.get("job")
            job.state = "dispatched"
            if self.journal is not None:
                self.journal.dispatched(job.id, index)
            if response.get("state") in ("done", "failed"):
                if response.get("state") == "done":
                    self._finish(job, response.get("record"))
                else:
                    self._fail(
                        job,
                        f"worker search failed: "
                        f"{response.get('error', 'unknown')}",
                    )
                return True
            return False

    def _finish(self, job: ClusterJob, record: Optional[dict]) -> None:
        if self._aborted:
            return
        if record is None:
            self._fail(job, "worker reported done without a record")
            return
        job.record = record
        job.state = "done"
        job.finished_at = time.monotonic()
        if self.journal is not None:
            self.journal.done(job.id, job.key, record)
        if job.task is not None:
            self.cache.put(job.task, OutcomeRecord.from_json(record))
        with self._lock:
            self._by_key.pop(job.key, None)
        self.metrics.incr("cluster.jobs.completed")
        job.done.set()

    def _fail(self, job: ClusterJob, error: str) -> None:
        if self._aborted or job.finished():
            return
        job.error = error
        job.state = "failed"
        job.finished_at = time.monotonic()
        if self.journal is not None:
            self.journal.failed(job.id, error)
        with self._lock:
            self._by_key.pop(job.key, None)
        self.metrics.incr("cluster.jobs.failed")
        job.done.set()

    # ------------------------------------------------------------------
    # HTTP transport
    # ------------------------------------------------------------------

    def make_http_server(self):
        return build_http_server(self, self.config.host, self.config.port)


def _job_number(job_id: str) -> Optional[int]:
    if job_id.startswith("cj-"):
        try:
            return int(job_id[3:])
        except ValueError:
            return None
    return None


def _task_of(body: dict):
    """The body's TheoremTask, or None for raw-`goal` bodies."""
    if "goal" in body:
        return None
    try:
        return task_from_json(body)
    except ValueError:
        return None


def serve_cluster_forever(config: ClusterConfig) -> int:
    """Boot the cluster and serve until SIGTERM/Ctrl-C (CLI entry)."""
    cluster = ProverCluster(config)
    cluster.start()
    server = cluster.make_http_server()
    host, port = server.server_address[:2]
    print(
        f"prover cluster on http://{host}:{port} "
        f"(workers={config.workers} x {config.threads} threads, "
        f"journal={cluster.journal.path if cluster.journal else 'none'}, "
        f"state={config.state_dir or 'memory'})"
    )
    if cluster.replayed_jobs:
        print(f"replayed {cluster.replayed_jobs} unfinished job(s) "
              f"from the journal")
    install_sigterm_drain()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining cluster...")
    finally:
        server.shutdown()
        server.server_close()
        cluster.close()
    return 0
