"""Transfer engines and asynchronous event handling (paper Section 5.3).

The upload/download pipelines express their CSP interactions as batches
of :class:`TransferOp`; an engine executes a batch and reports per-op
results with timings.  Two engines:

* :class:`DirectEngine` — performs provider calls immediately; used for
  real providers (e.g. :class:`repro.csp.localfs.LocalDirectoryCSP`)
  and for logic tests where time is irrelevant.  At ``parallelism=1``
  it runs a batch serially on the calling thread; above 1 it scatters
  the batch across a :class:`repro.core.parallel.ScatterGatherPool`.
  Both paths share one per-op dispatch.
* :class:`SimulatedEngine` — times every op on the flow-level network
  simulator against each provider's link, advancing a shared
  :class:`repro.util.clock.SimClock`; data operations are applied to
  the providers at their simulated completion instants.

The paper's event receiver (GET / PUT / GET_META / PUT_META events
driving ShareComplete, ChunkComplete and FileComplete) is implemented by
:class:`TransferReceiver`; engines emit one event per op.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs import Observability

from repro.core.parallel import ResultHook, ScatterGatherPool
from repro.csp.base import CloudProvider
from repro.csp.resilient import HealthRegistry
from repro.errors import CSPError, CSPUnavailableError, TransferError, is_retryable
from repro.netsim.link import Link
from repro.netsim.simulator import FlowSimulator, TransferRequest
from repro.util.clock import Clock, SimClock, WallClock, sleep_on


class OpKind(enum.Enum):
    """The four share-transmission event types of Section 5.3."""

    GET = "GET"
    PUT = "PUT"
    GET_META = "GET_META"
    PUT_META = "PUT_META"
    DELETE = "DELETE"  # maintenance; not part of the paper's event set

    @property
    def direction(self) -> str:
        return "up" if self in (OpKind.PUT, OpKind.PUT_META, OpKind.DELETE) else "down"


@dataclass
class TransferOp:
    """One provider operation to execute.

    ``size`` must be given for GETs (the expected share size, known from
    the ShareMap); PUT sizes derive from ``data``.  ``chunk_id``/
    ``file_key`` feed the event receiver's completion tracking.

    A PUT may carry ``data_fn`` instead of ``data``: a thunk producing
    the payload, invoked on the executing worker at dispatch time.  This
    is how the parallel uploader pipelines encoding with transfer —
    erasure-coding chunk *k+1* runs on one pool worker while chunk *k*'s
    shares are already on the wire.  Lazy ops should still set ``size``
    so planners can cost them without forcing the encode.
    """

    kind: OpKind
    csp_id: str
    name: str
    data: bytes | None = None
    size: int | None = None
    chunk_id: str | None = None
    file_key: str | None = None
    group: Hashable | None = None
    data_fn: Callable[[], bytes] | None = None
    #: Dispatch even while the CSP's circuit is open.  Set by callers
    #: that have consciously chosen a quarantined provider as the last
    #: remaining source (the gather's final failover): the breaker's
    #: fail-fast protects against hammering, but a read that would
    #: otherwise fail outright is worth one deliberate attempt.
    force_dispatch: bool = False

    def resolve_data(self) -> bytes | None:
        """Materialise the payload (runs ``data_fn`` at most once)."""
        if self.data is None and self.data_fn is not None:
            self.data = self.data_fn()
            self.data_fn = None
        return self.data

    def payload_size(self) -> int:
        if self.data is not None:
            return len(self.data)
        if self.size is not None:
            return self.size
        if self.data_fn is not None:
            return len(self.resolve_data() or b"")
        return 0


@dataclass
class OpResult:
    """Outcome of one op: timing, success, and downloaded data if any.

    ``error_type`` carries the exception class name on failure, so
    callers can react per-cause (quota vs outage) without string
    matching on messages.
    """

    op: TransferOp
    ok: bool
    start: float
    end: float
    data: bytes | None = None
    error: str | None = None
    error_type: str | None = None
    cancelled: bool = False
    # transient/permanent classification of the failure (None on success):
    # True = a same-provider retry may succeed; False = re-route instead
    retryable: bool | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def quota_exceeded(self) -> bool:
        return self.error_type == "CSPQuotaExceededError"


@dataclass
class _Completion:
    """Per-chunk / per-file completion counters."""

    needed: int
    done: int = 0


class TransferReceiver:
    """The registered event receiver of Section 5.3.

    Engines call :meth:`on_result` for every op.  ``ShareComplete`` is
    per-op success; ``ChunkComplete`` fires when a chunk accumulates its
    required share count (``n`` on upload, ``t`` on download);
    ``FileComplete`` fires when all of a file's chunks complete.
    """

    def __init__(self) -> None:
        self._chunk: dict[str, _Completion] = {}
        self._file_chunks: dict[str, set[str]] = {}
        self._file_complete: dict[str, bool] = {}
        self.events: list[OpResult] = []
        # pool workers emit results concurrently; the counters and the
        # event log are read-modify-write, so serialise them
        self._lock = threading.Lock()

    def expect_chunk(self, chunk_id: str, shares_needed: int,
                     file_key: str | None = None) -> None:
        """Register a chunk transfer (n shares up or t shares down)."""
        with self._lock:
            self._chunk[chunk_id] = _Completion(needed=shares_needed)
            if file_key is not None:
                self._file_chunks.setdefault(file_key, set()).add(chunk_id)
                self._file_complete.setdefault(file_key, False)

    def on_result(self, result: OpResult) -> None:
        """Feed one transfer event through the completion logic."""
        with self._lock:
            self.events.append(result)
            if not result.ok:
                return
            chunk_id = result.op.chunk_id
            if chunk_id is None or chunk_id not in self._chunk:
                return
            comp = self._chunk[chunk_id]
            comp.done += 1
            if comp.done == comp.needed:
                # a chunk may belong to several registered files (dedup);
                # membership comes from expect_chunk, not from the op
                for file_key, chunks in self._file_chunks.items():
                    if chunk_id not in chunks:
                        continue
                    if all(
                        self._chunk[c].done >= self._chunk[c].needed
                        for c in chunks
                    ):
                        self._file_complete[file_key] = True

    def share_complete(self, result: OpResult) -> bool:
        return result.ok

    def chunk_complete(self, chunk_id: str) -> bool:
        comp = self._chunk.get(chunk_id)
        return comp is not None and comp.done >= comp.needed

    def file_complete(self, file_key: str) -> bool:
        return self._file_complete.get(file_key, False)


class TransferEngine:
    """Base engine: executes op batches against providers."""

    #: True when batches genuinely run concurrently — the gate for lazy
    #: share encoding and streaming failover in the pipelines.
    parallel_enabled = False

    def __init__(
        self,
        providers: Mapping[str, CloudProvider],
        clock: Clock | None = None,
        receiver: TransferReceiver | None = None,
        health: HealthRegistry | None = None,
        obs: "Observability | None" = None,
    ):
        self._providers = dict(providers)
        self.clock = clock if clock is not None else WallClock()
        self.receiver = receiver
        # shared per-CSP health: breaker fail-fast + outcome recording
        self.health = health
        # shared observability: every op result flows through _emit, so
        # attaching here makes the metrics layer see every dispatch
        self.obs = obs

    @property
    def obs(self) -> "Observability | None":
        return self._obs

    @obs.setter
    def obs(self, value: "Observability | None") -> None:
        self._obs = value
        self._on_obs_changed()

    def _on_obs_changed(self) -> None:
        """Subclass hook: re-bind internal components to the new obs."""

    def sleep(self, seconds: float) -> None:
        """Backoff sleep on the injected clock (see :func:`sleep_on`):
        fake clocks record it, SimClock advances, WallClock really sleeps."""
        sleep_on(self.clock, seconds)

    def _breaker_blocks(self, op: TransferOp, now: float) -> OpResult | None:
        """Fail fast (without dispatching) when the CSP's circuit is open."""
        if op.force_dispatch or self.health is None \
                or self.health.allow(op.csp_id):
            return None
        return OpResult(
            op=op, ok=False, start=now, end=now,
            error=f"circuit open for {op.csp_id}",
            error_type="CircuitOpenError", retryable=False,
        )

    def _record_health(self, csp_id: str, exc: CSPError | None) -> None:
        """Feed an op outcome to the registry.

        Only unavailability counts as a health failure; an auth/quota/
        not-found response proves the provider is reachable.
        """
        if self.health is None:
            return
        if exc is not None and isinstance(exc, CSPUnavailableError):
            self.health.record_failure(csp_id, exc)
        else:
            self.health.record_success(csp_id)

    def register_provider(self, provider: CloudProvider) -> None:
        self._providers[provider.csp_id] = provider

    def unregister_provider(self, csp_id: str) -> None:
        self._providers.pop(csp_id, None)

    def provider(self, csp_id: str) -> CloudProvider:
        prov = self._providers.get(csp_id)
        if prov is None:
            raise TransferError(f"no provider registered for {csp_id!r}")
        return prov

    def _apply(self, op: TransferOp) -> bytes | None:
        """Perform the actual data operation; raises CSPError on failure."""
        provider = self.provider(op.csp_id)
        if op.kind in (OpKind.PUT, OpKind.PUT_META):
            data = op.resolve_data()
            if data is None:
                raise TransferError(f"PUT without data: {op.name}")
            provider.upload(op.name, data)
            return None
        if op.kind in (OpKind.GET, OpKind.GET_META):
            return provider.download(op.name)
        if op.kind == OpKind.DELETE:
            provider.delete(op.name)
            return None
        raise TransferError(f"unknown op kind {op.kind}")  # pragma: no cover

    def _emit(self, result: OpResult) -> OpResult:
        if self.obs is not None:
            self.obs.record_op(result)
        if self.receiver is not None:
            self.receiver.on_result(result)
        return result

    def link_caps(self, direction: str) -> dict[str, float]:
        """Per-CSP achievable bandwidth (beta-bar) for planning.

        The base engine has no bandwidth model, so every provider gets
        1.0 — the download optimiser then simply balances share counts.
        """
        return {csp_id: 1.0 for csp_id in self._providers}

    def client_cap(self, direction: str) -> float:
        """Client-wide bandwidth (beta) for planning."""
        return float("inf")

    def execute(
        self,
        ops: Sequence[TransferOp],
        group_quota: Mapping[Hashable, int] | None = None,
    ) -> list[OpResult]:
        raise NotImplementedError


class DirectEngine(TransferEngine):
    """Execute ops against the providers; timing comes from the clock.

    ``parallelism=1`` (the default) runs each batch serially on the
    calling thread and never starts a thread.  ``parallelism>1`` routes
    batches through a :class:`ScatterGatherPool` bounded by
    ``max_inflight_per_csp`` and ``max_inflight_total``.  Both paths run
    the same :meth:`_dispatch_one` and honour the same group quotas and
    ``on_result`` follow-ups.
    """

    def __init__(
        self,
        providers: Mapping[str, CloudProvider],
        clock: Clock | None = None,
        receiver: TransferReceiver | None = None,
        health: HealthRegistry | None = None,
        obs: "Observability | None" = None,
        parallelism: int = 1,
        max_inflight_per_csp: int | None = None,
        max_inflight_total: int | None = None,
    ):
        super().__init__(providers, clock=clock, receiver=receiver,
                         health=health, obs=obs)
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.max_inflight_per_csp = max_inflight_per_csp
        self.max_inflight_total = max_inflight_total
        self._pool: ScatterGatherPool | None = None

    @property
    def parallel_enabled(self) -> bool:
        return self.parallelism > 1

    def pool(self) -> ScatterGatherPool:
        if self._pool is None:
            self._pool = ScatterGatherPool(
                workers=self.parallelism,
                max_inflight_per_csp=self.max_inflight_per_csp,
                max_inflight_total=self.max_inflight_total,
            )
        return self._pool

    def close(self) -> None:
        """Stop pool workers (idempotent; a closed engine stays serial)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.parallelism = 1

    def _dispatch_one(self, op: TransferOp) -> OpResult:
        """One op end to end on the calling thread (the serial loop or a
        pool worker); group quotas are the caller's business."""
        start = self.clock.now()
        blocked = self._breaker_blocks(op, start)
        if blocked is not None:
            return blocked
        try:
            data = self._apply(op)
            end = self.clock.now()
            self._record_health(op.csp_id, None)
            return OpResult(op=op, ok=True, start=start, end=end, data=data)
        except CSPError as exc:
            end = self.clock.now()
            self._record_health(op.csp_id, exc)
            return OpResult(op=op, ok=False, start=start, end=end,
                            error=str(exc), error_type=type(exc).__name__,
                            retryable=is_retryable(exc))

    def _cancel_one(self, op: TransferOp) -> OpResult:
        now = self.clock.now()
        return OpResult(op=op, ok=False, start=now, end=now,
                        cancelled=True, error="group quota satisfied")

    def execute(
        self,
        ops: Sequence[TransferOp],
        group_quota: Mapping[Hashable, int] | None = None,
        on_result: ResultHook | None = None,
    ) -> list[OpResult]:
        """Run one batch; results come back in submission order (initial
        ops first, then ``on_result`` follow-ups in enqueue order)."""
        if self.parallel_enabled:
            return self.pool().run(
                ops,
                lambda op: self._emit(self._dispatch_one(op)),
                lambda op: self._emit(self._cancel_one(op)),
                group_quota=group_quota, on_result=on_result,
                metrics=self.obs.metrics if self.obs is not None else None,
            )
        # serially, follow-ups run as a further wave after the batch,
        # under the same quota dict
        quota = dict(group_quota or {})
        results: list[OpResult] = []
        wave = ops
        while wave:
            followups: list[TransferOp] = []
            for op in wave:
                group = op.group
                if group is not None and group in quota and quota[group] <= 0:
                    result = self._cancel_one(op)
                else:
                    result = self._dispatch_one(op)
                    if result.ok and group is not None and group in quota:
                        quota[group] -= 1
                results.append(self._emit(result))
                if on_result is not None:
                    followups.extend(on_result(result) or ())
            wave = followups
        return results


class SimulatedEngine(TransferEngine):
    """Time ops on the flow simulator; apply data ops at completion.

    The engine shares a :class:`SimClock` with the simulated providers,
    so availability windows, token expiry, and transfer timings all see
    one timeline.  Provider availability is checked at issue *and* at
    completion: a CSP that goes down mid-transfer fails the op, as a
    dropped connection would.
    """

    def __init__(
        self,
        providers: Mapping[str, CloudProvider],
        links: Mapping[str, Link],
        clock: SimClock,
        client_up: float = float("inf"),
        client_down: float = float("inf"),
        receiver: TransferReceiver | None = None,
        health: HealthRegistry | None = None,
        obs: "Observability | None" = None,
    ):
        super().__init__(providers, clock=clock, receiver=receiver,
                         health=health, obs=obs)
        self._links = dict(links)
        self._sim = FlowSimulator(self._links, client_up=client_up,
                                  client_down=client_down,
                                  metrics=obs.metrics if obs else None)

    def _on_obs_changed(self) -> None:
        # the flow simulator records per-link flows/bytes into the same
        # registry (it may not exist yet while the base class __init__
        # assigns the initial obs)
        sim = getattr(self, "_sim", None)
        if sim is not None:
            sim.metrics = self._obs.metrics if self._obs else None

    def register_link(self, link: Link) -> None:
        self._links[link.link_id] = link
        self._sim = FlowSimulator(self._links, client_up=self._sim.client_up,
                                  client_down=self._sim.client_down,
                                  metrics=self._sim.metrics)

    def link_caps(self, direction: str) -> dict[str, float]:
        now = self.clock.now()
        return {
            link_id: link.capacity_at(now, direction)
            for link_id, link in self._links.items()
        }

    def client_cap(self, direction: str) -> float:
        return self._sim.client_capacity(direction)

    @staticmethod
    def _is_up(provider: CloudProvider, t: float) -> bool:
        checker = getattr(provider, "is_up", None)
        return bool(checker(t)) if callable(checker) else True

    def execute(
        self,
        ops: Sequence[TransferOp],
        group_quota: Mapping[Hashable, int] | None = None,
    ) -> list[OpResult]:
        """Run one batch; the shared clock advances to the batch's end."""
        start_time = self.clock.now()
        results: list[OpResult | None] = [None] * len(ops)
        requests: list[TransferRequest] = []
        req_to_op: list[int] = []
        for i, op in enumerate(ops):
            provider = self.provider(op.csp_id)
            blocked = self._breaker_blocks(op, start_time)
            if blocked is not None:
                results[i] = blocked
                continue
            if not self._is_up(provider, start_time):
                self._record_health(
                    op.csp_id,
                    CSPUnavailableError(f"{op.csp_id} unavailable",
                                        csp_id=op.csp_id),
                )
                results[i] = OpResult(
                    op=op, ok=False, start=start_time, end=start_time,
                    error=f"{op.csp_id} unavailable",
                    error_type="CSPUnavailableError", retryable=True,
                )
                continue
            requests.append(
                TransferRequest(
                    link_id=op.csp_id,
                    size=op.payload_size(),
                    direction=op.kind.direction,
                    start_at=0.0,
                    tag=i,
                    group=op.group,
                )
            )
            req_to_op.append(i)
        transfer_results = self._sim.run(requests, group_quota=group_quota,
                                         start_time=start_time)
        batch_end = start_time
        for tr in transfer_results:
            i = tr.request.tag
            op = ops[i]
            provider = self.provider(op.csp_id)
            batch_end = max(batch_end, tr.end)
            if not tr.completed:
                results[i] = OpResult(op=op, ok=False, start=tr.start, end=tr.end,
                                      cancelled=True, error="cancelled (quota)")
                continue
            if not self._is_up(provider, tr.end):
                self._record_health(
                    op.csp_id,
                    CSPUnavailableError(f"{op.csp_id} went down mid-transfer",
                                        csp_id=op.csp_id),
                )
                results[i] = OpResult(
                    op=op, ok=False, start=tr.start, end=tr.end,
                    error=f"{op.csp_id} went down mid-transfer",
                    error_type="CSPUnavailableError", retryable=True,
                )
                continue
            try:
                data = self._apply(op)
                self._record_health(op.csp_id, None)
                results[i] = OpResult(op=op, ok=True, start=tr.start, end=tr.end,
                                      data=data)
            except CSPError as exc:
                self._record_health(op.csp_id, exc)
                results[i] = OpResult(op=op, ok=False, start=tr.start, end=tr.end,
                                      error=str(exc),
                                      error_type=type(exc).__name__,
                                      retryable=is_retryable(exc))
        self.clock.advance_to(max(batch_end, start_time))
        final = [r for r in results if r is not None]
        if len(final) != len(ops):  # pragma: no cover - internal invariant
            raise TransferError("engine lost an op result")
        for r in final:
            self._emit(r)
        return final
