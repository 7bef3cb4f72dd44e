"""The fault-injecting provider wrapper.

Wraps any :class:`repro.csp.base.CloudProvider` and applies a
:class:`repro.faults.plan.FaultPlan` to every operation.  The wrapper is
invisible to the client stack — faults surface through exactly the same
exception types a real connector raises — so chaos scenarios exercise
the genuine failure-handling paths (retry policy, circuit breakers,
share repair) rather than test doubles of them.
"""

from __future__ import annotations

import threading

from repro.csp.base import BytesLike, CloudProvider, ObjectInfo
from repro.errors import (
    CSPAuthError,
    CSPQuotaExceededError,
    CSPUnavailableError,
)
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, SimulatedCrash
from repro.util.clock import Clock


class FaultyProvider(CloudProvider):
    """A provider whose behaviour is scripted by a fault plan.

    Args:
        inner: The real provider to wrap.
        plan: The fault schedule; each wrapper gets its own
            deterministic per-provider stream from it.
        clock: When given and advanceable (a SimClock), LATENCY/SLOW
            faults advance it so deadlines and breaker timeouts observe
            the injected delay; without one the delay is only recorded.

    Observability: ``fault_log`` lists every injected fault in order,
    ``op_counts`` counts dispatched operations by name (before faults),
    and ``calls_reaching_inner`` counts operations that actually touched
    the wrapped provider — the number a circuit-breaker test asserts on.
    """

    def __init__(
        self,
        inner: CloudProvider,
        plan: FaultPlan,
        clock: Clock | None = None,
    ):
        super().__init__(inner.csp_id)
        self.inner = inner
        self.clock = clock
        self._schedule = plan.for_provider(inner.csp_id)
        self.fault_log: list[FaultEvent] = []
        self.op_counts: dict[str, int] = {}
        self.calls_reaching_inner = 0
        self._op_no = 0
        self.injected_delay_s = 0.0
        # op numbering + counters under concurrent dispatch (the fault
        # *decision* stays a pure function of the claimed op_no, so a
        # seeded plan injects the same multiset of faults regardless of
        # worker interleaving)
        self._lock = threading.Lock()

    # -- fault machinery --------------------------------------------------

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _advance(self, seconds: float) -> None:
        with self._lock:
            self.injected_delay_s += seconds
        if self.clock is not None:
            advance = getattr(self.clock, "advance", None)
            if callable(advance):
                advance(seconds)

    def _before(self, op: str, name: str = "", size: int = 0) -> list:
        """Count the op, decide its faults, raise the error kinds.

        Returns the non-error faults (CORRUPT) for the caller to apply
        to the operation's result.
        """
        with self._lock:
            op_no = self._op_no
            self._op_no += 1
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
        fired = self._schedule.decide(op, name, op_no, self._now())
        deferred = []
        for idx, spec in fired:
            with self._lock:
                self.fault_log.append(FaultEvent(
                    csp_id=self.csp_id, op_no=op_no, op=op, name=name,
                    kind=spec.kind, time=self._now(),
                ))
            if spec.kind is FaultKind.LATENCY:
                self._advance(spec.delay_s)
            elif spec.kind is FaultKind.SLOW:
                self._advance(spec.delay_s * (size / (1024.0 * 1024.0)))
            elif spec.kind is FaultKind.OUTAGE:
                raise CSPUnavailableError(
                    f"injected outage (op #{op_no}, {op} {name!r})",
                    csp_id=self.csp_id,
                )
            elif spec.kind is FaultKind.TRANSIENT:
                raise CSPUnavailableError(
                    f"injected transient error (op #{op_no}, {op} {name!r})",
                    csp_id=self.csp_id,
                )
            elif spec.kind is FaultKind.QUOTA:
                raise CSPQuotaExceededError(
                    f"injected quota exhaustion (op #{op_no})",
                    csp_id=self.csp_id,
                )
            elif spec.kind is FaultKind.AUTH:
                raise CSPAuthError(
                    f"injected auth expiry (op #{op_no})", csp_id=self.csp_id
                )
            elif spec.kind is FaultKind.CRASH:
                # before the inner call: the dying op never lands
                raise SimulatedCrash(
                    f"injected client death at {self.csp_id} "
                    f"op #{op_no} ({op} {name!r})"
                )
            else:  # CORRUPT/CORRUPT_READ: applied to the bytes afterwards
                deferred.append((op_no, spec))
        return deferred

    def _corrupt(self, data: bytes, name: str, op_no: int, flip_bits: int) -> bytes:
        """Deterministically flip bits in one download's payload."""
        if not data:
            return data
        rng = self._schedule.corruption_rng(op_no, name)
        blob = bytearray(data)
        for _ in range(flip_bits):
            pos = rng.randrange(len(blob))
            blob[pos] ^= 1 << rng.randrange(8)
        return bytes(blob)

    @property
    def injected_faults(self) -> dict[FaultKind, int]:
        """Fault-log histogram by kind."""
        out: dict[FaultKind, int] = {}
        for event in self.fault_log:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # -- the five primitives ----------------------------------------------

    def authenticate(self, credentials):
        self._before("authenticate")
        with self._lock:
            self.calls_reaching_inner += 1
        return self.inner.authenticate(credentials)

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        self._before("list", prefix)
        with self._lock:
            self.calls_reaching_inner += 1
        return self.inner.list(prefix=prefix)

    def upload(self, name: str, data: BytesLike) -> None:
        self._before("upload", name, size=len(data))
        with self._lock:
            self.calls_reaching_inner += 1
        self.inner.upload(name, data)

    def download(self, name: str) -> bytes:
        deferred = self._before("download", name)
        with self._lock:
            self.calls_reaching_inner += 1
        data = self.inner.download(name)
        for op_no, spec in deferred:
            # CORRUPT_READ keys its RNG by object name alone (op_no 0),
            # so refetching the object yields the same wrong bytes — a
            # Byzantine store, not a flaky wire
            rng_op = 0 if spec.kind is FaultKind.CORRUPT_READ else op_no
            data = self._corrupt(data, name, rng_op, spec.flip_bits)
        return data

    def delete(self, name: str) -> None:
        self._before("delete", name)
        with self._lock:
            self.calls_reaching_inner += 1
        self.inner.delete(name)
