"""Scripted, seeded fault schedules.

The failure experiments in the paper (Section 5.5, Figure 13) need
*reproducible* chaos: the same scenario must produce the same outages,
the same transient blips and the same corrupted shares on every run, or
a failing chaos test cannot be debugged.  A :class:`FaultPlan` is a list
of :class:`FaultSpec` rules plus a seed; all randomness (probability
rolls, bit-flip positions) derives from ``(seed, csp_id)`` streams and
per-provider operation counters, so two runs that issue the same
operation sequence observe byte-identical fault schedules.

Rules match on operation name, object-name prefix, provider, an
operation-count window and/or a time window, fire with a probability,
and inject one of nine fault kinds:

============= =======================================================
kind           effect
============= =======================================================
OUTAGE         raise :class:`CSPUnavailableError` (provider down)
TRANSIENT      raise :class:`CSPUnavailableError` (blip; retries recover)
LATENCY        advance the clock by ``delay_s`` before the call proceeds
SLOW           advance the clock by ``delay_s`` per MiB of payload
QUOTA          raise :class:`CSPQuotaExceededError` on uploads
AUTH           raise :class:`CSPAuthError` (token expired)
CORRUPT        flip ``flip_bits`` bits of a download's returned bytes
CORRUPT_READ   same, but *persistent*: a given object returns the same
               wrong bytes on every fetch (Byzantine provider whose
               stored data rotted or was tampered with, as opposed to
               CORRUPT's per-transfer line noise)
CRASH          raise :class:`SimulatedCrash` (kill the client process)
============= =======================================================

CRASH is the crash-consistency hammer: a spec like
``FaultSpec(kind=CRASH, window_ops=(k, None), max_hits=1)`` kills the
client at its k-th operation on a provider, so sweeping ``k`` walks the
kill point through every stage of an upload/delete/gc pipeline.  The
fault fires *before* the operation reaches the wrapped provider — the
crashing op itself never lands, exactly like a process dying between
issuing a request and its bytes leaving the machine.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Sequence


class FaultKind(enum.Enum):
    """The injectable fault families."""

    OUTAGE = "outage"
    TRANSIENT = "transient"
    LATENCY = "latency"
    SLOW = "slow"
    QUOTA = "quota"
    AUTH = "auth"
    CORRUPT = "corrupt"
    CORRUPT_READ = "corrupt-read"
    CRASH = "crash"


#: Fault kinds that raise instead of mutating behaviour.
ERROR_KINDS = (FaultKind.OUTAGE, FaultKind.TRANSIENT, FaultKind.QUOTA,
               FaultKind.AUTH)


class SimulatedCrash(BaseException):
    """The injected process death of ``FaultKind.CRASH``.

    Deliberately a :class:`BaseException`, not a
    :class:`repro.errors.CyrusError`: no retry loop, circuit breaker or
    read re-probe may swallow it, because a real ``kill -9``
    gives the client no chance to handle anything.  Only the test
    harness (standing in for the OS) catches it.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault rule.

    Attributes:
        kind: What to inject.
        ops: Operation names the rule applies to (default: data ops for
            QUOTA/CORRUPT-appropriate kinds, every op otherwise).
        csp_ids: Providers the rule applies to (None = all).
        name_prefix: Only objects whose name starts with this.
        window_ops: ``(start, end)`` half-open window in the provider's
            own operation sequence number (None end = forever).
        window_time: ``(start, end)`` half-open clock window in seconds.
        probability: Chance the rule fires when it matches.
        delay_s: LATENCY seconds (or SLOW seconds per MiB).
        flip_bits: CORRUPT bit-flip count per download.
        max_hits: Stop firing after this many injections (None = no cap).
    """

    kind: FaultKind
    ops: tuple[str, ...] | None = None
    csp_ids: tuple[str, ...] | None = None
    name_prefix: str | None = None
    window_ops: tuple[int, int | None] | None = None
    window_time: tuple[float, float] | None = None
    probability: float = 1.0
    delay_s: float = 0.0
    flip_bits: int = 3
    max_hits: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.flip_bits < 1:
            raise ValueError("flip_bits must be >= 1")
        if self.max_hits is not None and self.max_hits < 1:
            raise ValueError("max_hits must be >= 1 (or None)")
        if self.window_time is not None and \
                self.window_time[1] <= self.window_time[0]:
            raise ValueError(f"empty window_time {self.window_time}")

    def matches(self, csp_id: str, op: str, name: str,
                op_no: int, now: float) -> bool:
        """Static match (windows, targets); the probability roll is separate."""
        if self.csp_ids is not None and csp_id not in self.csp_ids:
            return False
        if self.ops is not None and op not in self.ops:
            return False
        if self.name_prefix is not None and not name.startswith(self.name_prefix):
            return False
        if self.window_ops is not None:
            start, end = self.window_ops
            if op_no < start or (end is not None and op_no >= end):
                return False
        if self.window_time is not None:
            t0, t1 = self.window_time
            if now < t0 or now >= t1:
                return False
        if self.kind is FaultKind.QUOTA and op != "upload":
            return False
        if (self.kind in (FaultKind.CORRUPT, FaultKind.CORRUPT_READ)
                and op != "download"):
            return False
        return True


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in a provider's fault log."""

    csp_id: str
    op_no: int
    op: str
    name: str
    kind: FaultKind
    time: float


@dataclass
class ProviderSchedule:
    """One provider's deterministic view of a plan.

    Owns the per-provider RNG stream and hit counters.  Probability
    rolls are keyed by ``(plan seed, csp_id, op_no, rule index)`` so the
    decision for operation k never depends on how many earlier rules
    fired — schedules stay identical across runs that issue the same
    operations.
    """

    csp_id: str
    seed: int
    specs: tuple[FaultSpec, ...]
    hits: dict[int, int] = field(default_factory=dict)  # rule idx -> count

    def _roll(self, op_no: int, rule_idx: int) -> float:
        digest = hashlib.sha1(
            f"{self.seed}:{self.csp_id}:{op_no}:{rule_idx}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def corruption_rng(self, op_no: int, name: str) -> random.Random:
        """Deterministic RNG for one download's bit flips."""
        digest = hashlib.sha1(
            f"{self.seed}:{self.csp_id}:corrupt:{op_no}:{name}".encode()
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def decide(self, op: str, name: str, op_no: int,
               now: float) -> list[tuple[int, FaultSpec]]:
        """The rules that fire for this operation, in plan order."""
        fired: list[tuple[int, FaultSpec]] = []
        for idx, spec in enumerate(self.specs):
            if not spec.matches(self.csp_id, op, name, op_no, now):
                continue
            if spec.max_hits is not None and self.hits.get(idx, 0) >= spec.max_hits:
                continue
            if spec.probability < 1.0 and self._roll(op_no, idx) >= spec.probability:
                continue
            self.hits[idx] = self.hits.get(idx, 0) + 1
            fired.append((idx, spec))
        return fired


class FaultPlan:
    """An ordered set of fault rules plus the seed that drives them.

    Plans are immutable recipes: :meth:`for_provider` mints a fresh
    stateful :class:`ProviderSchedule` per wrapper, so the same plan can
    be applied to many providers (or to two identical runs) without any
    shared mutable state.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.specs)

    def with_spec(self, spec: FaultSpec) -> "FaultPlan":
        return FaultPlan(self.specs + (spec,), seed=self.seed)

    def restricted_to(self, csp_ids: Sequence[str]) -> "FaultPlan":
        """A copy whose every rule is limited to the given providers."""
        return FaultPlan(
            tuple(replace(s, csp_ids=tuple(csp_ids)) for s in self.specs),
            seed=self.seed,
        )

    def for_provider(self, csp_id: str) -> ProviderSchedule:
        return ProviderSchedule(csp_id=csp_id, seed=self.seed, specs=self.specs)

    # -- scripted-scenario builders --------------------------------------

    @classmethod
    def chaos(
        cls,
        seed: int = 0,
        transient_rate: float = 0.1,
        corrupt_csp_ids: Sequence[str] = (),
        corrupt_rate: float = 1.0,
        outage_csp_id: str | None = None,
        outage_window_ops: tuple[int, int | None] = (40, 80),
        latency_rate: float = 0.0,
        latency_s: float = 0.2,
    ) -> "FaultPlan":
        """A ready-made mixed-fault scenario for chaos tests.

        Transient blips on every provider's data operations, scripted
        bit-flip corruption on a bounded provider subset (keep it at or
        below ``n - t`` for recoverability), one op-count-windowed
        outage, and optional latency spikes.
        """
        specs: list[FaultSpec] = []
        if transient_rate > 0:
            specs.append(FaultSpec(
                kind=FaultKind.TRANSIENT, ops=("upload", "download"),
                probability=transient_rate,
            ))
        if corrupt_csp_ids and corrupt_rate > 0:
            specs.append(FaultSpec(
                kind=FaultKind.CORRUPT, csp_ids=tuple(corrupt_csp_ids),
                probability=corrupt_rate,
            ))
        if outage_csp_id is not None:
            specs.append(FaultSpec(
                kind=FaultKind.OUTAGE, csp_ids=(outage_csp_id,),
                window_ops=tuple(outage_window_ops),
            ))
        if latency_rate > 0:
            specs.append(FaultSpec(
                kind=FaultKind.LATENCY, ops=("upload", "download"),
                probability=latency_rate, delay_s=latency_s,
            ))
        return cls(specs, seed=seed)

    @classmethod
    def metadata_byzantine(
        cls,
        seed: int = 0,
        liar_csp_ids: Sequence[str] = (),
        corrupt_rate: float = 1.0,
        outage_csp_id: str | None = None,
        outage_window_ops: tuple[int, int | None] = (0, None),
        name_prefix: str = "md-",
    ) -> "FaultPlan":
        """Byzantine metadata plane: lying slots plus an optional outage.

        Every ``liar_csp_ids`` provider serves persistently corrupted
        bytes (CORRUPT_READ, so re-reads see the same rot) for objects
        under ``name_prefix`` — by default the metadata namespace, so
        data shares stay clean and the scenario isolates the metadata
        plane.  Keep ``len(liar_csp_ids)`` plus the outage at or below
        ``m - t`` for the verified fetch to stay live.
        """
        specs: list[FaultSpec] = []
        if liar_csp_ids and corrupt_rate > 0:
            specs.append(FaultSpec(
                kind=FaultKind.CORRUPT_READ, csp_ids=tuple(liar_csp_ids),
                name_prefix=name_prefix, probability=corrupt_rate,
            ))
        if outage_csp_id is not None:
            specs.append(FaultSpec(
                kind=FaultKind.OUTAGE, csp_ids=(outage_csp_id,),
                window_ops=tuple(outage_window_ops),
            ))
        return cls(specs, seed=seed)
