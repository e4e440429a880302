"""The shared retry primitives: seeded hash, backoff rule, breaker."""

import math
import sys
import threading

import pytest

from repro.errors import ModelExhaustedError, TransientModelError
from repro.llm.resilient import ResilientGenerator, RetryPolicy
from repro.resilience import (
    CircuitBreaker,
    backoff,
    stable_jitter,
    stable_seed,
)
from repro.service.supervisor import Supervisor, WorkerSpec


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_jitter_is_the_seed_scaled_to_unit_interval():
    assert stable_jitter("a", 1) == stable_seed("a", 1) / 2**64
    # Parts are joined by \x1f after str(): these collide by design.
    assert stable_seed("a\x1fb") == stable_seed("a", "b")
    assert stable_seed(1, 2) == stable_seed("1", "2")


class TestBackoff:
    def test_doubles_then_caps(self):
        delays = [
            backoff(n, base=0.05, cap=0.3, jitter=0.0) for n in range(5)
        ]
        assert delays == [0.05, 0.1, 0.2, 0.3, 0.3]

    def test_floor_applies_before_jitter(self):
        assert backoff(0, base=0.05, cap=2.0, jitter=0.0, floor=0.5) == 0.5
        stretched = backoff(0, "k", base=0.05, cap=2.0, jitter=0.25, floor=0.5)
        assert stretched == 0.5 * (1.0 + 0.25 * stable_jitter("k"))

    def test_jitter_is_seeded_by_the_key(self):
        a = backoff(2, "x", 2, base=0.1, cap=math.inf, jitter=1.0)
        assert a == backoff(2, "x", 2, base=0.1, cap=math.inf, jitter=1.0)
        assert a != backoff(2, "y", 2, base=0.1, cap=math.inf, jitter=1.0)
        assert 0.4 <= a < 0.8


class TestCircuitBreaker:
    def test_opens_at_threshold_and_cools_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(3, 10.0, clock)
        assert [breaker.record_failure() for _ in range(3)] == [
            False, False, True,
        ]
        assert breaker.is_open() and breaker.open_until == 10.0
        clock.now = 10.0
        assert not breaker.is_open()

    def test_failed_half_open_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(2, 5.0, clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 6.0
        assert not breaker.is_open()
        assert breaker.record_failure()  # count stayed at the threshold
        assert breaker.open_until == 11.0

    def test_only_a_success_resets(self):
        breaker = CircuitBreaker(2, 5.0, FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.failures == 0 and not breaker.is_open()
        assert not breaker.record_failure()


class AlwaysFails:
    name = "flaky"
    context_window = 1000

    def __init__(self) -> None:
        self.calls = 0

    def generate(self, prompt, k):
        self.calls += 1
        raise TransientModelError("500")


class ScriptedFallback:
    name = "fallback"
    context_window = 1000

    def generate(self, prompt, k):
        return []


def test_exhaustion_reports_the_attempts_made():
    clock = FakeClock()
    model = AlwaysFails()
    wrapper = ResilientGenerator(
        model,
        policy=RetryPolicy(max_attempts=4, breaker_threshold=2),
        clock=clock,
        sleep=lambda seconds: None,
    )
    with pytest.raises(ModelExhaustedError, match="after 2 attempts"):
        wrapper.generate("p", 4)
    assert model.calls == 2
    with pytest.raises(ModelExhaustedError, match="circuit breaker open"):
        wrapper.generate("p", 4)
    assert model.calls == 2


def test_breaker_counts_stay_exact_under_concurrent_queries():
    """Generation threads share one wrapper: no failure may be lost."""

    class LockedFailures(AlwaysFails):
        def __init__(self) -> None:
            super().__init__()
            self.lock = threading.Lock()

        def generate(self, prompt, k):
            with self.lock:
                self.calls += 1
            raise TransientModelError("500")

    class LockedCounters:
        def __init__(self) -> None:
            self.lock = threading.Lock()
            self.counters = {}

        def incr(self, name, n=1):
            with self.lock:
                self.counters[name] = self.counters.get(name, 0) + n

    model = LockedFailures()
    metrics = LockedCounters()
    wrapper = ResilientGenerator(
        model,
        fallback=ScriptedFallback(),
        policy=RetryPolicy(max_attempts=3, breaker_threshold=10**9),
        clock=FakeClock(),
        sleep=lambda seconds: None,
        metrics=metrics,
    )

    def drive():
        for i in range(50):
            wrapper.generate(f"p{i}", 4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert model.calls == 8 * 50 * 3
    assert wrapper.breaker.failures == model.calls
    assert metrics.counters["llm.primary_failures"] == model.calls
    assert metrics.counters["llm.fallback_queries"] == 8 * 50


class DeadProcess:
    def is_alive(self):
        return False


@pytest.mark.parametrize("disable", [False, True])
def test_router_failures_leave_a_lost_worker_alone(disable):
    """A dead worker's lost jobs must not re-count its death, and a
    disabled slot must not be restarted."""

    class Counters:
        def __init__(self) -> None:
            self.counters = {}

        def incr(self, name, n=1):
            self.counters[name] = self.counters.get(name, 0) + n

    metrics = Counters()
    supervisor = Supervisor([WorkerSpec(index=0)], metrics=metrics)
    worker = supervisor._workers[0]
    worker.process = DeadProcess()
    if disable:
        supervisor.disable_worker(0)
    else:
        supervisor._tend(worker)  # notices the death
    state, restart_at = worker.state, worker.restart_at
    for _ in range(5):
        supervisor.report_failure(0)
    assert worker.state == state
    supervisor._tend(worker)
    assert (worker.state, worker.restart_at) == (state, restart_at)
    expected = {} if disable else {"cluster.worker_deaths": 1}
    assert metrics.counters == expected
