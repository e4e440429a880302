"""ResilientGenerator: retries, backoff, breaker, degradation.

Every test drives the wrapper with a fake clock whose ``sleep``
advances it — no real time passes anywhere in this file.
"""

import pytest

from repro.errors import (
    GenerationTimeout,
    ModelExhaustedError,
    RateLimitError,
    TransientModelError,
)
from repro.llm.interface import Candidate
from repro.llm.resilient import ResilientGenerator, RetryPolicy, stable_jitter


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class ScriptedModel:
    """Raises the scripted errors in order, then answers normally."""

    name = "scripted"
    context_window = 1000
    provides_log_probs = True

    def __init__(self, errors=(), latency=0.0, clock=None) -> None:
        self.errors = list(errors)
        self.latency = latency
        self.clock = clock
        self.calls = 0

    def generate(self, prompt, k):
        self.calls += 1
        if self.latency and self.clock is not None:
            self.clock.now += self.latency
        if self.errors:
            raise self.errors.pop(0)
        return [Candidate(tactic="auto.", log_prob=-1.0)]


class CountingMetrics:
    def __init__(self) -> None:
        self.counters = {}

    def incr(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


def make(primary, fallback=None, clock=None, **policy_kwargs):
    clock = clock or FakeClock()
    metrics = CountingMetrics()
    wrapper = ResilientGenerator(
        primary,
        fallback=fallback,
        policy=RetryPolicy(**policy_kwargs),
        clock=clock,
        sleep=clock.sleep,
        metrics=metrics,
    )
    return wrapper, clock, metrics


class TestRetries:
    def test_transparent_on_success(self):
        model = ScriptedModel()
        wrapper, clock, metrics = make(model)
        out = wrapper.generate("p", 4)
        assert [c.tactic for c in out] == ["auto."]
        assert model.calls == 1
        assert clock.sleeps == []
        assert metrics.counters == {}

    def test_retries_through_transient_errors(self):
        model = ScriptedModel(
            errors=[TransientModelError("500"), TransientModelError("500")]
        )
        wrapper, clock, metrics = make(model, max_attempts=4)
        out = wrapper.generate("p", 4)
        assert [c.tactic for c in out] == ["auto."]
        assert model.calls == 3
        assert metrics.counters["llm.retries"] == 2
        assert len(clock.sleeps) == 2

    def test_backoff_schedule_is_exponential_and_deterministic(self):
        errors = [TransientModelError("500")] * 3
        model_a = ScriptedModel(errors=list(errors))
        model_b = ScriptedModel(errors=list(errors))
        a, clock_a, _ = make(model_a, base_delay=0.1, jitter=0.25)
        b, clock_b, _ = make(model_b, base_delay=0.1, jitter=0.25)
        a.generate("p", 4)
        b.generate("p", 4)
        # Identical runs sleep identically (hash jitter, no RNG) …
        assert clock_a.sleeps == clock_b.sleeps
        # … and the base doubles each retry: 0.1, 0.2, 0.4 (+ jitter).
        for i, (lo, sleep) in enumerate(zip((0.1, 0.2, 0.4), clock_a.sleeps)):
            assert lo <= sleep <= lo * 1.25, f"retry {i}"

    def test_rate_limit_floor_exceeds_early_backoff(self):
        model = ScriptedModel(errors=[RateLimitError("429")])
        wrapper, clock, _ = make(
            model, base_delay=0.01, rate_limit_delay=0.5
        )
        wrapper.generate("p", 4)
        assert clock.sleeps[0] >= 0.5

    def test_exhaustion_without_fallback_raises(self):
        model = ScriptedModel(errors=[TransientModelError("500")] * 10)
        wrapper, _, _ = make(model, max_attempts=3)
        with pytest.raises(ModelExhaustedError):
            wrapper.generate("p", 4)
        assert model.calls == 3

    def test_exhaustion_with_fallback_degrades(self):
        primary = ScriptedModel(errors=[TransientModelError("500")] * 10)
        fallback = ScriptedModel()
        wrapper, _, metrics = make(primary, fallback=fallback, max_attempts=2)
        out = wrapper.generate("p", 4)
        assert [c.tactic for c in out] == ["auto."]
        assert fallback.calls == 1
        assert metrics.counters["llm.fallback_queries"] == 1


class TestQueryTimeout:
    def test_slow_call_classified_as_timeout(self):
        clock = FakeClock()
        model = ScriptedModel(latency=10.0, clock=clock)
        wrapper, clock, _ = make(
            model, clock=clock, query_timeout=5.0, max_attempts=1
        )
        with pytest.raises(ModelExhaustedError) as excinfo:
            wrapper.generate("p", 4)
        assert isinstance(excinfo.value.__cause__, GenerationTimeout)

    def test_fast_call_passes(self):
        clock = FakeClock()
        model = ScriptedModel(latency=1.0, clock=clock)
        wrapper, clock, _ = make(model, clock=clock, query_timeout=5.0)
        assert wrapper.generate("p", 4)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        model = ScriptedModel(errors=[TransientModelError("500")] * 100)
        fallback = ScriptedModel()
        wrapper, clock, metrics = make(
            model,
            fallback=fallback,
            max_attempts=10,
            breaker_threshold=3,
            breaker_cooldown=30.0,
        )
        wrapper.generate("p", 4)
        # Tripped mid-query after exactly 3 primary failures, then
        # degraded; no further primary calls while open.
        assert model.calls == 3
        assert wrapper.breaker_open()
        assert metrics.counters["llm.breaker_opens"] == 1
        wrapper.generate("q", 4)
        assert model.calls == 3
        assert fallback.calls == 2

    def test_half_open_probe_recovers(self):
        model = ScriptedModel(errors=[TransientModelError("500")] * 3)
        fallback = ScriptedModel()
        wrapper, clock, _ = make(
            model,
            fallback=fallback,
            max_attempts=5,
            breaker_threshold=3,
            breaker_cooldown=30.0,
        )
        wrapper.generate("p", 4)
        assert wrapper.breaker_open()
        clock.now += 31.0  # cooldown over -> half-open
        out = wrapper.generate("q", 4)  # probe succeeds -> closed
        assert [c.tactic for c in out] == ["auto."]
        assert not wrapper.breaker_open()
        assert wrapper.breaker.failures == 0

    def test_half_open_failure_reopens_immediately(self):
        model = ScriptedModel(errors=[TransientModelError("500")] * 100)
        fallback = ScriptedModel()
        wrapper, clock, metrics = make(
            model,
            fallback=fallback,
            max_attempts=5,
            breaker_threshold=3,
            breaker_cooldown=30.0,
        )
        wrapper.generate("p", 4)
        calls_after_trip = model.calls
        clock.now += 31.0
        wrapper.generate("q", 4)  # half-open probe fails once
        assert model.calls == calls_after_trip + 1
        assert wrapper.breaker_open()
        assert metrics.counters["llm.breaker_opens"] == 2


class TestDelegation:
    def test_generator_surface_is_delegated(self):
        model = ScriptedModel()
        wrapper, _, _ = make(model)
        assert wrapper.name == "scripted"
        assert wrapper.context_window == 1000
        assert wrapper.provides_log_probs is True


class TestStableJitter:
    def test_range_and_determinism(self):
        values = [stable_jitter("model", "prompt", i) for i in range(50)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [stable_jitter("model", "prompt", i) for i in range(50)]
        assert len(set(values)) > 40  # spreads, not constant
