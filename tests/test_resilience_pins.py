"""Pinned retry delays, seeded hash values and breaker transitions.

Every literal below was recorded from the code before the three
backoff loops, the two circuit breakers and the three copies of the
seeded hash were merged into :mod:`repro.resilience`.  The assertions
use exact ``==``: the merge must keep every seeded delay, every fault
decision and every counter bit-identical.

No process is forked and nothing sleeps: the supervisor is driven
with a stand-in process, a stubbed health probe and a fake clock.
"""

from types import SimpleNamespace

import pytest

from repro.errors import RateLimitError, TransientModelError
from repro.llm.interface import Candidate
from repro.llm.resilient import ResilientGenerator, stable_jitter
from repro.llm.sampling import attempt_seed, stable_seed
from repro.service import supervisor as supervisor_module
from repro.service.client import ProverClient, ProverTransportError
from repro.service.supervisor import Supervisor, WorkerSpec, WorkerState
from repro.testing.faults import FaultPlan, FaultyChecker


class Counters:
    def __init__(self) -> None:
        self.counters = {}

    def incr(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


# ----------------------------------------------------------------------
# The seeded hash
# ----------------------------------------------------------------------


def test_seeded_hash_values():
    assert stable_seed("gpt-4o", "Lemma x.") == 17615124560553321250
    assert stable_jitter("gpt-4o", "Lemma x.") == 0.9549178158577338
    assert stable_jitter(0, 1, 2) == 0.45221322603255193
    assert attempt_seed("abc", 3) == "eba02788d7d9a614"


def test_fault_decisions():
    plan = FaultPlan.parse(
        "seed=7,transient=0.15,ratelimit=0.10,malformed=0.10,"
        "truncate=0.05,max_failures=2,stall=0.2"
    )
    prompts = [f"p{i}" for i in range(12)]
    assert [plan.model_fault_for("ctx", p) for p in prompts] == [
        None, "stall", "stall", None, "transient", "transient",
        None, None, None, "malformed", None, "transient",
    ]
    assert [plan.failures_for("ctx", p) for p in prompts] == [
        1, 1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 2,
    ]
    crash = FaultPlan.parse("seed=3,crash=0.5")
    assert [crash.should_kill_worker(f"t{i}", 0) for i in range(12)] == [
        True, True, False, False, False, True,
        True, True, False, False, False, False,
    ]


def test_checker_stall_decisions():
    class Inner:
        def check(self, state, tactic_text, seen_keys=None):
            return tactic_text

    stalled = []
    checker = FaultyChecker(
        Inner(),
        FaultPlan.parse("seed=5,stall=0.5,stall_seconds=0.25"),
        sleep=stalled.append,
    )
    decisions = []
    for i in range(10):
        before = len(stalled)
        checker.check(None, f"apply H{i}.")
        decisions.append(len(stalled) > before)
    assert decisions == [
        True, True, False, False, True, False, False, True, True, True,
    ]
    assert set(stalled) == {0.25}


# ----------------------------------------------------------------------
# Model-call retries (key: name \x1f prompt, retry index)
# ----------------------------------------------------------------------


class ScriptedModel:
    name = "scripted"
    context_window = 1000
    provides_log_probs = True

    def __init__(self, errors) -> None:
        self.errors = list(errors)

    def generate(self, prompt, k):
        if self.errors:
            raise self.errors.pop(0)
        return [Candidate(tactic="auto.", log_prob=-1.0)]


def _resilient_sleeps(errors):
    sleeps = []
    metrics = Counters()
    wrapper = ResilientGenerator(
        ScriptedModel(errors),
        clock=lambda: 0.0,
        sleep=sleeps.append,
        metrics=metrics,
    )
    assert [c.tactic for c in wrapper.generate("p", 4)] == ["auto."]
    return sleeps, metrics.counters


def test_transient_retry_delays():
    sleeps, counters = _resilient_sleeps([TransientModelError("500")] * 3)
    assert sleeps == [
        0.056556085857861996, 0.10038784172986162, 0.2143186510812583,
    ]
    assert counters == {"llm.retries": 3, "llm.primary_failures": 3}


def test_rate_limit_floor_delays():
    sleeps, counters = _resilient_sleeps([RateLimitError("429")] * 3)
    assert sleeps == [
        0.5655608585786199, 0.5019392086493081, 0.5357966277031457,
    ]
    assert counters == {"llm.retries": 3, "llm.primary_failures": 3}


# ----------------------------------------------------------------------
# Worker restart backoff (seed 0)
# ----------------------------------------------------------------------


RESTART_DELAYS = {
    0: [
        0.060797607853935925, 0.10214289188638659, 0.23591639321773503,
        0.40252418697810466, 0.8289536243293631, 1.7153601014985598,
        2.15171358644975, 2.041714717083688,
    ],
    1: [
        0.05198166273267664, 0.1211415496400976, 0.22261066130162763,
        0.4268174636648785, 0.9923875095212896, 1.8093188411872814,
        2.0520007288501914, 2.0260605605501825,
    ],
}


def test_restart_backoff_delays():
    metrics = Counters()
    supervisor = Supervisor(
        [WorkerSpec(index=0), WorkerSpec(index=1)], metrics=metrics
    )
    for index, expected in RESTART_DELAYS.items():
        worker = supervisor._workers[index]
        delays = []
        for restarts in range(8):
            worker.restarts = restarts
            supervisor._mark_down(worker, 0.0)
            assert worker.state == WorkerState.DOWN
            delays.append(worker.restart_at)
        assert delays == expected
    assert metrics.counters == {"cluster.worker_deaths": 16}


# ----------------------------------------------------------------------
# Client transport retries
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "path, expected",
    [
        (
            "/healthz",
            [0.05771770900874848, 0.18514262961688255, 0.29455788380878384],
        ),
        (
            "/jobs/x?wait=2",
            [0.09811018215946779, 0.19794322306416878, 0.2953748773057651],
        ),
    ],
)
def test_client_transport_delays(path, expected):
    sleeps = []
    client = ProverClient("http://127.0.0.1:9", sleep=sleeps.append)

    def refuse(request):
        raise ConnectionRefusedError(111, "refused")

    client._open = refuse
    with pytest.raises(ProverTransportError, match="after 4 attempts"):
        client._request("GET", path)
    assert sleeps == expected
    assert client.transport_retries == 3


# ----------------------------------------------------------------------
# The supervisor's per-worker breaker, without forking
# ----------------------------------------------------------------------


class AliveProcess:
    def is_alive(self):
        return True


class StubClient:
    def __init__(self) -> None:
        self.ok = True
        self.probes = 0

    def healthz(self):
        self.probes += 1
        if not self.ok:
            raise ConnectionRefusedError(111, "refused")
        return {"status": "ok"}


@pytest.fixture
def fleet(monkeypatch):
    clock = SimpleNamespace(now=100.0)
    monkeypatch.setattr(
        supervisor_module,
        "time",
        SimpleNamespace(monotonic=lambda: clock.now),
    )
    metrics = Counters()
    supervisor = Supervisor([WorkerSpec(index=0)], metrics=metrics)
    worker = supervisor._workers[0]
    worker.process = AliveProcess()
    worker.client = StubClient()
    worker.state = WorkerState.HEALTHY
    return supervisor, worker, clock, metrics


def test_three_failures_open_the_breaker_once(fleet):
    supervisor, worker, clock, metrics = fleet
    worker.client.ok = False
    for _ in range(2):
        supervisor._tend(worker)
        assert worker.state == WorkerState.HEALTHY
    supervisor._tend(worker)
    assert worker.state == WorkerState.SUSPECT
    assert not supervisor.routable(0)
    assert metrics.counters.get("cluster.breaker_opens") == 1


def test_cooldown_failures_refresh_without_recounting(fleet):
    supervisor, worker, clock, metrics = fleet
    worker.client.ok = False
    for _ in range(3):
        supervisor._tend(worker)  # opens at t=100, cooldown to 101
    probes = worker.client.probes
    clock.now = 100.5
    supervisor._tend(worker)  # inside the cooldown: no probe
    assert worker.client.probes == probes
    supervisor.report_failure(0)  # refreshes the cooldown to 101.5
    clock.now = 101.2
    supervisor._tend(worker)  # past the first cooldown, not the second
    assert worker.client.probes == probes
    clock.now = 101.6
    supervisor._tend(worker)  # half-open probe fails: cooldown to 102.6
    assert worker.client.probes == probes + 1
    assert worker.state == WorkerState.SUSPECT
    clock.now = 102.0
    supervisor._tend(worker)
    assert worker.client.probes == probes + 1
    assert metrics.counters.get("cluster.breaker_opens") == 1


def test_successful_probe_closes_the_breaker(fleet):
    supervisor, worker, clock, metrics = fleet
    worker.client.ok = False
    for _ in range(3):
        supervisor._tend(worker)
    worker.client.ok = True
    clock.now = 101.5
    supervisor._tend(worker)
    assert worker.state == WorkerState.HEALTHY
    assert supervisor.routable(0)
    # The success reset the count: two more failures do not reopen.
    worker.client.ok = False
    supervisor._tend(worker)
    supervisor._tend(worker)
    assert worker.state == WorkerState.HEALTHY
    supervisor._tend(worker)
    assert worker.state == WorkerState.SUSPECT
    assert metrics.counters.get("cluster.breaker_opens") == 2


def test_report_success_closes_the_breaker(fleet):
    supervisor, worker, clock, metrics = fleet
    for _ in range(3):
        supervisor.report_failure(0)
    assert worker.state == WorkerState.SUSPECT
    supervisor.report_failure(0)  # already open: not counted again
    assert metrics.counters.get("cluster.breaker_opens") == 1
    supervisor.report_success(0)
    assert worker.state == WorkerState.HEALTHY
    assert supervisor.routable(0)
    assert supervisor.stats()["states"]["0"]["failures"] == 0
