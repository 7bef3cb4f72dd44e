"""Failure-handling primitives: backoff policy, circuit breakers, health.

The paper's Section 5.5 treats CSP failure as a first-class event:
autonomous providers go down, come back, throttle, and expire tokens on
their own schedules, and the client must keep serving through it all.
This module holds the state that decision runs on; the transfer layer
applies it:

* :class:`RetryPolicy` — exponential backoff with deterministic jitter;
  :class:`repro.core.retry.ShareRetryLoop` spends its attempt budget
  over the transient/permanent classification in :mod:`repro.errors`;
* :class:`CircuitBreaker` — per-CSP closed → open → half-open breaker so
  a dead provider stops eating retry budget after a few failures;
* :class:`HealthRegistry` — the shared per-CSP health view (breaker
  states, failure counts, last errors) that the transfer engine gates
  every op on and the upload/download pipelines and the download
  selector consult.

Everything takes a :class:`repro.util.clock.Clock`, so breaker timeouts
are exact on a :class:`SimClock` and real against wall-clock providers.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.util.clock import Clock, WallClock


# ---------------------------------------------------------------------------
# retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_attempts`` bounds tries *per provider per operation*; once a
    provider exhausts them the caller fails over to an alternate.
    Jitter is derived from ``(seed, attempt)`` rather than a shared RNG
    stream so that two identically-seeded runs produce identical delay
    schedules regardless of interleaving — a requirement for
    reproducible chaos tests.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based, deterministic)."""
        if attempt < 1:
            return 0.0
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        u = random.Random(f"{self.seed}:{attempt}").random()
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))


# ---------------------------------------------------------------------------
# circuit breaker


class BreakerState(enum.Enum):
    """The classic three-state breaker lifecycle."""

    CLOSED = "closed"  # normal operation
    OPEN = "open"  # failing fast; no calls dispatched
    HALF_OPEN = "half_open"  # probation: one probe allowed through


class CircuitBreaker:
    """Per-CSP circuit breaker.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` returns False (callers fail fast without
    touching the provider).  After ``reset_timeout`` seconds the breaker
    half-opens and :meth:`allow` admits exactly one probe; a recorded
    success closes the circuit, a failure re-opens it for another full
    timeout.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")
        self.clock = clock if clock is not None else WallClock()
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_inflight = False
        self.opened_count = 0  # lifetime open transitions (observability)
        # state transitions are read-modify-write; pool workers hit one
        # breaker concurrently, and the HALF_OPEN single-probe admission
        # in allow() must be atomic (reentrant: state refresh nests)
        self._lock = threading.RLock()

    @property
    def state(self) -> BreakerState:
        """Current state, refreshing the OPEN → HALF_OPEN timeout edge."""
        with self._lock:
            if (self._state is BreakerState.OPEN
                    and self.clock.now()
                    >= self._opened_at + self.reset_timeout):
                self._state = BreakerState.HALF_OPEN
                self._probe_inflight = False
            return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def allow(self) -> bool:
        """Whether a call may be dispatched right now.

        In HALF_OPEN, only the first caller gets True (the probe); the
        rest fail fast until the probe's outcome is recorded.
        """
        with self._lock:
            state = self.state
            if state is BreakerState.CLOSED:
                return True
            if state is BreakerState.HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            # an OPEN circuit only closes through the HALF_OPEN probe: a
            # success arriving while OPEN can only come from a deliberate
            # force-dispatched last-resort op, and one good object does
            # not end a quarantine (the .state read refreshes the
            # OPEN -> HALF_OPEN timeout edge first)
            if self.state is not BreakerState.OPEN:
                self._probe_inflight = False
                self._state = BreakerState.CLOSED
                self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            state = self.state
            if state is BreakerState.HALF_OPEN:
                self._trip()  # failed probe: back to a full timeout
            elif (state is BreakerState.CLOSED
                  and self._consecutive_failures >= self.failure_threshold):
                self._trip()

    def _trip(self) -> None:
        with self._lock:
            self._state = BreakerState.OPEN
            self._opened_at = self.clock.now()
            self._probe_inflight = False
            self.opened_count += 1

    def reset(self) -> None:
        """Force-close the circuit regardless of its state.

        For callers that have *verified* recovery out of band (a probe
        listing against the failed provider succeeded); ordinary
        successes never close an OPEN circuit — see
        :meth:`record_success`.
        """
        with self._lock:
            self._consecutive_failures = 0
            self._probe_inflight = False
            self._state = BreakerState.CLOSED
            self._opened_at = None

    def trip(self) -> None:
        """Force the circuit open regardless of the failure count.

        Used for quarantine decisions made *outside* the availability
        path — e.g. a provider that answers promptly but returns corrupt
        shares never accumulates consecutive availability failures, yet
        must be embargoed just the same.
        """
        self._trip()


# ---------------------------------------------------------------------------
# health registry


@dataclass(frozen=True)
class HealthEvent:
    """One structured failure-handling event (for logs and clients)."""

    time: float
    kind: str  # "failure" | "breaker_open" | "breaker_close" | "probe_failed" | "sync_degraded" | "corrupt_share" | "quarantined"
    csp_id: str | None
    detail: str


@dataclass
class CSPHealth:
    """Snapshot of one provider's health (returned by the registry)."""

    csp_id: str
    state: BreakerState
    consecutive_failures: int
    successes: int
    failures: int
    last_error: str | None


class HealthRegistry:
    """Shared per-CSP health: breaker states, counters, event stream.

    One registry is shared by the transfer engine (fail-fast + outcome
    recording), the pipelines (alternate-CSP choice) and the selector
    (candidate filtering), so every layer sees the same liveness view.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        corruption_threshold: int = 3,
        metrics=None,
    ):
        self.clock = clock if clock is not None else WallClock()
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        # distinct from failure_threshold: a corrupt payload is strong
        # evidence (a Byzantine provider, not a flaky network), so the
        # quarantine trigger is tighter than the availability breaker
        self.corruption_threshold = corruption_threshold
        self._breakers: dict[str, CircuitBreaker] = {}
        self._successes: dict[str, int] = {}
        self._failures: dict[str, int] = {}
        self._corruptions: dict[str, int] = {}
        self._last_error: dict[str, str] = {}
        self._listeners: list[Callable[[HealthEvent], None]] = []
        # guards breaker-map population and the per-CSP counters; the
        # breakers themselves carry their own locks (reentrant so a
        # listener may query the registry from inside emit)
        self._lock = threading.RLock()
        # optional repro.obs.metrics.MetricsRegistry (duck-typed so this
        # module stays import-light); every emitted event is counted
        self.metrics = metrics

    # -- wiring ----------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Attach a metrics registry after construction (client wiring)."""
        self.metrics = metrics

    def breaker(self, csp_id: str) -> CircuitBreaker:
        with self._lock:
            brk = self._breakers.get(csp_id)
            if brk is None:
                brk = CircuitBreaker(
                    clock=self.clock,
                    failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout,
                )
                self._breakers[csp_id] = brk
            return brk

    def subscribe(self, listener: Callable[[HealthEvent], None]) -> None:
        """Register a structured-event listener (e.g. a client's log)."""
        with self._lock:
            self._listeners.append(listener)

    def emit(self, kind: str, csp_id: str | None, detail: str) -> None:
        event = HealthEvent(
            time=self.clock.now(), kind=kind, csp_id=csp_id, detail=detail
        )
        if self.metrics is not None:
            # breaker transitions arrive here as breaker_open /
            # breaker_close / probe_failed, so one counter covers the
            # whole failure-handling event stream
            self.metrics.inc("cyrus_health_events_total",
                             kind=kind, csp=csp_id or "*")
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(event)

    # -- outcome recording ------------------------------------------------

    def allow(self, csp_id: str) -> bool:
        """Fail-fast gate: may an operation be dispatched to this CSP?"""
        return self.breaker(csp_id).allow()

    def record_success(self, csp_id: str) -> None:
        brk = self.breaker(csp_id)
        was_open = brk.state is not BreakerState.CLOSED
        brk.record_success()
        with self._lock:
            self._successes[csp_id] = self._successes.get(csp_id, 0) + 1
        # a success while fully OPEN (a force-dispatched last resort)
        # leaves the circuit open, so only emit when it really closed
        if was_open and brk.state is BreakerState.CLOSED:
            self.emit("breaker_close", csp_id, "probe succeeded; circuit closed")

    def record_failure(self, csp_id: str, error: str | BaseException = "") -> None:
        brk = self.breaker(csp_id)
        was_half_open = brk.state is BreakerState.HALF_OPEN
        before = brk.state
        brk.record_failure()
        with self._lock:
            self._failures[csp_id] = self._failures.get(csp_id, 0) + 1
            self._last_error[csp_id] = str(error)
        self.emit("failure", csp_id, str(error))
        if brk.state is BreakerState.OPEN and before is not BreakerState.OPEN:
            kind = "probe_failed" if was_half_open else "breaker_open"
            self.emit(
                kind, csp_id,
                f"circuit open after {brk.consecutive_failures} consecutive "
                f"failures (reset in {brk.reset_timeout:g}s)",
            )

    def record_probe_success(self, csp_id: str) -> None:
        """A caller-run recovery probe verified this provider works.

        Unlike :meth:`record_success` (which an OPEN circuit ignores),
        the probe is a deliberate out-of-band health check, so it closes
        the circuit immediately — the engine resumes dispatching without
        waiting out the reset timeout.
        """
        brk = self.breaker(csp_id)
        was_open = brk.state is not BreakerState.CLOSED
        brk.reset()
        with self._lock:
            self._successes[csp_id] = self._successes.get(csp_id, 0) + 1
        if was_open:
            self.emit("breaker_close", csp_id,
                      "probe succeeded; circuit closed")

    def trip(self, csp_id: str, reason: str = "unavailable") -> None:
        """A transfer gave up on this provider for unavailability: open
        its circuit at once (paper Section 5.5, "no shares are uploaded
        to that CSP" until it is back).  The breaker half-opens after
        its reset timeout and admits one probe op;
        ``CyrusClient.probe_failed_csps`` closes it at once when the
        provider answers a listing."""
        brk = self.breaker(csp_id)
        already_open = brk.state is BreakerState.OPEN
        brk.trip()
        if not already_open:
            self.emit("breaker_open", csp_id, f"gave up: {reason}")

    def record_corruption(self, csp_id: str, detail: str = "") -> None:
        """A verified-corrupt share came back from this provider.

        Emits a ``corrupt_share`` event every time; at
        ``corruption_threshold`` strikes the provider is quarantined —
        its breaker is forced open, so every health-filtered code path
        (engine dispatch, selection, alternate choice, repair placement)
        routes around it without any status flip in the cloud.  After
        the breaker's reset timeout a half-open probe lets the provider
        earn its way back; further corruption re-quarantines it.
        """
        with self._lock:
            strikes = self._corruptions.get(csp_id, 0) + 1
            self._corruptions[csp_id] = strikes
            self._last_error[csp_id] = detail or "corrupt share"
        if self.metrics is not None:
            self.metrics.inc("cyrus_corrupt_shares_total", csp=csp_id)
        self.emit("corrupt_share", csp_id, detail or "share failed verification")
        if strikes % self.corruption_threshold == 0:
            brk = self.breaker(csp_id)
            already_open = brk.state is BreakerState.OPEN
            brk.trip()
            if not already_open:
                self.emit(
                    "quarantined", csp_id,
                    f"{strikes} corrupt shares; circuit forced open "
                    f"(reset in {brk.reset_timeout:g}s)",
                )

    def corruption_count(self, csp_id: str) -> int:
        """Lifetime verified-corrupt shares attributed to one provider."""
        with self._lock:
            return self._corruptions.get(csp_id, 0)

    # -- queries ----------------------------------------------------------

    def is_live(self, csp_id: str) -> bool:
        """Candidate-filter view: False only while the breaker is OPEN.

        HALF_OPEN counts as live so that the probe can be routed; an
        unknown CSP is live (innocent until proven otherwise).
        """
        with self._lock:
            brk = self._breakers.get(csp_id)
        return brk is None or brk.state is not BreakerState.OPEN

    def up(self, csp_id: str, cloud) -> bool:
        """The one rule for "may a share there be used": ``cloud`` (a
        :class:`repro.core.cloud.CyrusCloud`) keeps the CSP as a member
        and its breaker is not OPEN."""
        return cloud.keeps(csp_id) and self.is_live(csp_id)

    def dark(self, csp_id: str) -> bool:
        """Down for availability: the breaker is not CLOSED and the
        provider has no corruption strikes (a quarantined one answers,
        so it stays a suspect, not dark)."""
        with self._lock:
            brk = self._breakers.get(csp_id)
            strikes = self._corruptions.get(csp_id, 0)
        return (brk is not None and brk.state is not BreakerState.CLOSED
                and not strikes)

    def live(self, csp_ids: Iterable[str]) -> list[str]:
        return [c for c in csp_ids if self.is_live(c)]

    def health_of(self, csp_id: str) -> CSPHealth:
        brk = self.breaker(csp_id)
        with self._lock:
            return CSPHealth(
                csp_id=csp_id,
                state=brk.state,
                consecutive_failures=brk.consecutive_failures,
                successes=self._successes.get(csp_id, 0),
                failures=self._failures.get(csp_id, 0),
                last_error=self._last_error.get(csp_id),
            )

    def snapshot(self) -> dict[str, CSPHealth]:
        """Health of every provider the registry has seen."""
        with self._lock:
            known = sorted(self._breakers)
        return {csp_id: self.health_of(csp_id) for csp_id in known}
