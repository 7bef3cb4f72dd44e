"""Failure-handling primitives: retry policy, breaker, health registry."""

from __future__ import annotations

import pytest

from repro.csp.resilient import (
    BreakerState,
    CircuitBreaker,
    HealthRegistry,
    RetryPolicy,
)
from repro.errors import CSPUnavailableError
from repro.util.clock import SimClock


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                             jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(0) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryPolicy(base_delay=0.1, jitter=0.25, seed=7)
        b = RetryPolicy(base_delay=0.1, jitter=0.25, seed=7)
        c = RetryPolicy(base_delay=0.1, jitter=0.25, seed=8)
        for attempt in range(1, 6):
            assert a.delay(attempt) == b.delay(attempt)
            raw = min(a.max_delay, 0.1 * a.multiplier ** (attempt - 1))
            assert raw * 0.75 <= a.delay(attempt) <= raw * 1.25
        assert any(a.delay(k) != c.delay(k) for k in range(1, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestCircuitBreaker:
    def test_full_lifecycle(self):
        clock = SimClock()
        brk = CircuitBreaker(clock=clock, failure_threshold=3,
                             reset_timeout=10.0)
        assert brk.state is BreakerState.CLOSED
        for _ in range(3):
            assert brk.allow()
            brk.record_failure()
        assert brk.state is BreakerState.OPEN
        assert brk.opened_count == 1
        assert not brk.allow()  # failing fast
        clock.advance(10.0)
        assert brk.state is BreakerState.HALF_OPEN
        assert brk.allow()  # exactly one probe
        assert not brk.allow()  # second caller blocked during probe
        brk.record_failure()  # probe failed
        assert brk.state is BreakerState.OPEN
        assert brk.opened_count == 2
        clock.advance(10.0)
        assert brk.allow()
        brk.record_success()
        assert brk.state is BreakerState.CLOSED
        assert brk.allow()

    def test_success_while_open_does_not_close(self):
        # a force-dispatched last-resort op can succeed against an OPEN
        # circuit; that must not end the quarantine — only the HALF_OPEN
        # probe after the reset timeout may close it
        clock = SimClock()
        brk = CircuitBreaker(clock=clock, failure_threshold=1,
                             reset_timeout=10.0)
        brk.record_failure()
        assert brk.state is BreakerState.OPEN
        brk.record_success()
        assert brk.state is BreakerState.OPEN
        clock.advance(10.0)
        brk.record_success()  # the sanctioned probe
        assert brk.state is BreakerState.CLOSED

    def test_success_resets_consecutive_failures(self):
        brk = CircuitBreaker(clock=SimClock(), failure_threshold=3)
        brk.record_failure()
        brk.record_failure()
        brk.record_success()
        brk.record_failure()
        brk.record_failure()
        assert brk.state is BreakerState.CLOSED  # never 3 consecutive


# ---------------------------------------------------------------------------
# HealthRegistry


class TestHealthRegistry:
    def test_liveness_and_events(self):
        clock = SimClock()
        reg = HealthRegistry(clock=clock, failure_threshold=2,
                             reset_timeout=5.0)
        events = []
        reg.subscribe(events.append)
        assert reg.is_live("never-seen")
        reg.record_failure("a", CSPUnavailableError("down", csp_id="a"))
        assert reg.is_live("a")  # one failure is not an open circuit
        reg.record_failure("a", CSPUnavailableError("down", csp_id="a"))
        assert not reg.is_live("a")
        assert reg.live(["a", "b"]) == ["b"]
        assert not reg.allow("a")
        kinds = [e.kind for e in events]
        assert kinds == ["failure", "failure", "breaker_open"]
        clock.advance(5.0)
        assert reg.is_live("a")  # half-open counts as live
        reg.record_success("a")
        assert [e.kind for e in events][-1] == "breaker_close"

    def test_snapshot_counters(self):
        reg = HealthRegistry(clock=SimClock())
        reg.record_success("a")
        reg.record_failure("a", "boom")
        health = reg.health_of("a")
        assert (health.successes, health.failures) == (1, 1)
        assert health.last_error == "boom"
        assert set(reg.snapshot()) == {"a"}
