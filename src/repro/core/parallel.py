"""Parallel scatter/gather transfer execution.

The paper's headline timelines (Figures 14-17) come from moving a
chunk's ``n`` shares to/from ``n`` CSPs *at the same time*.
:class:`ScatterGatherPool` is the one concurrent transfer path: a
persistent worker-thread pool that executes one batch of
:class:`repro.core.transfer.TransferOp` at a time under two admission
bounds — at most ``max_inflight_per_csp`` concurrent operations per
provider (one slow CSP cannot monopolise workers; ops for other
providers are scheduled around it) and at most ``max_inflight_total``
in flight overall.  Batches support the engine's group quotas (queued
ops of a satisfied group are cancelled without dispatch — straggler
cancellation) and *streaming follow-ups*: an ``on_result`` callback
sees every completion as it happens and may enqueue replacement ops
into the running batch, which is how the retry loop fails a share over
to a standby CSP without waiting for the rest of the batch.

:class:`repro.core.transfer.DirectEngine` routes a batch here when its
``parallelism`` is above 1; at ``parallelism=1`` the pool is never
started and the engine runs the same per-op dispatch serially.

Occupancy is exported through the engine's observability registry:
``cyrus_pool_inflight{csp}`` / ``cyrus_pool_inflight_total`` gauges
(live), ``cyrus_pool_inflight_peak{csp}`` (high-water marks),
``cyrus_pool_queue_depth`` and the ``cyrus_pool_dispatch_total`` /
``cyrus_pool_cancelled_total`` counters — surfaced by ``cyrus stats``.

Thread-safety contract: the pool calls provider code and the engine's
``_emit``/``on_result`` hooks *outside* its internal lock, so everything
those hooks touch (metrics, tracer, receiver, health registry, journal)
carries its own lock — see DESIGN.md's concurrency model for the full
lock map.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, Sequence

from repro.errors import TransferError

if TYPE_CHECKING:  # pragma: no cover - transfer.py imports this module
    from repro.core.transfer import OpResult, TransferOp

# Metric names (referenced by cyrus stats and the pool tests).
POOL_INFLIGHT = "cyrus_pool_inflight"              # gauge {csp}
POOL_INFLIGHT_TOTAL = "cyrus_pool_inflight_total"  # gauge
POOL_INFLIGHT_PEAK = "cyrus_pool_inflight_peak"    # gauge {csp, "*"=total}
POOL_QUEUE_DEPTH = "cyrus_pool_queue_depth"        # gauge
POOL_DISPATCH = "cyrus_pool_dispatch_total"        # counter {csp}
POOL_CANCELLED = "cyrus_pool_cancelled_total"      # counter

#: on_result may return follow-up ops to enqueue into the running batch.
ResultHook = Callable[["OpResult"], "Sequence[TransferOp] | None"]


class _Batch:
    """Mutable state of one in-progress batch (guarded by the pool lock)."""

    __slots__ = ("ops", "results", "pending", "unresolved", "quota",
                 "inflight", "inflight_total", "on_result")

    def __init__(
        self,
        ops: Sequence[TransferOp],
        group_quota: Mapping[Hashable, int] | None,
        on_result: ResultHook | None,
    ):
        self.ops: list[TransferOp] = list(ops)
        self.results: list[OpResult | None] = [None] * len(self.ops)
        self.pending: deque[int] = deque(range(len(self.ops)))
        self.unresolved = len(self.ops)
        self.quota: dict[Hashable, int] = dict(group_quota or {})
        self.inflight: dict[str, int] = {}
        self.inflight_total = 0
        self.on_result = on_result


class ScatterGatherPool:
    """Bounded worker-thread executor for transfer-op batches.

    Workers are daemon threads started lazily on the first batch, so a
    pool that is never used (``parallelism=1`` engines) costs nothing.
    One batch runs at a time; concurrent ``run`` calls serialise, which
    matches the synchronous pipelines that drive the engine.
    """

    def __init__(
        self,
        workers: int,
        max_inflight_per_csp: int | None = None,
        max_inflight_total: int | None = None,
    ):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        if max_inflight_per_csp is not None and max_inflight_per_csp < 1:
            raise ValueError("max_inflight_per_csp must be >= 1")
        if max_inflight_total is not None and max_inflight_total < 1:
            raise ValueError("max_inflight_total must be >= 1")
        self.workers = workers
        self.max_inflight_per_csp = max_inflight_per_csp
        self.max_inflight_total = (
            max_inflight_total if max_inflight_total is not None else workers
        )
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._done = threading.Condition(self._lock)
        self._serialize = threading.Lock()
        self._batch: _Batch | None = None
        self._threads: list[threading.Thread] = []
        self._closed = False
        # per-run hooks (set under _serialize, so stable for a batch)
        self._dispatch: Callable[[TransferOp], OpResult] | None = None
        self._cancel: Callable[[TransferOp], OpResult] | None = None
        self._metrics = None

    # -- lifecycle --------------------------------------------------------

    def _ensure_workers(self) -> None:
        while len(self._threads) < self.workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"cyrus-pool-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def close(self) -> None:
        """Stop the workers; the pool cannot be reused afterwards."""
        with self._lock:
            self._closed = True
            self._work.notify_all()

    # -- batch execution --------------------------------------------------

    def run(
        self,
        ops: Sequence[TransferOp],
        dispatch: Callable[[TransferOp], OpResult],
        cancel: Callable[[TransferOp], OpResult],
        group_quota: Mapping[Hashable, int] | None = None,
        on_result: ResultHook | None = None,
        metrics=None,
    ) -> list[OpResult]:
        """Execute one batch; returns results in submission order
        (initial ops first, then follow-ups in enqueue order)."""
        if self._closed:
            raise TransferError("scatter/gather pool is closed")
        if not ops and on_result is None:
            return []
        with self._serialize:
            self._dispatch = dispatch
            self._cancel = cancel
            self._metrics = metrics
            batch = _Batch(ops, group_quota, on_result)
            with self._lock:
                self._ensure_workers()
                self._batch = batch
                self._gauge_queue(batch)
                self._work.notify_all()
                while batch.unresolved > 0:
                    self._done.wait()
                self._batch = None
                self._gauge_queue(None)
            results = [r for r in batch.results]
        if any(r is None for r in results):  # pragma: no cover - invariant
            raise TransferError("pool lost an op result")
        return results  # type: ignore[return-value]

    # -- scheduling (all under self._lock) --------------------------------

    def _claimable(self, batch: _Batch, op: TransferOp) -> bool:
        if self.max_inflight_total is not None and (
                batch.inflight_total >= self.max_inflight_total):
            return False
        if self.max_inflight_per_csp is not None and (
                batch.inflight.get(op.csp_id, 0) >= self.max_inflight_per_csp):
            return False
        return True

    def _claim(self, batch: _Batch) -> tuple[str, int] | None:
        """The next schedulable task: ("cancel"|"dispatch", op index).

        Scans past ops whose CSP is saturated, so a slow provider never
        blocks dispatch to the others.
        """
        for _ in range(len(batch.pending)):
            idx = batch.pending.popleft()
            op = batch.ops[idx]
            group = op.group
            if (group is not None and group in batch.quota
                    and batch.quota[group] <= 0):
                return ("cancel", idx)
            if self._claimable(batch, op):
                batch.inflight[op.csp_id] = (
                    batch.inflight.get(op.csp_id, 0) + 1
                )
                batch.inflight_total += 1
                self._gauge_inflight(batch, op.csp_id)
                self._gauge_queue(batch)
                return ("dispatch", idx)
            batch.pending.append(idx)  # saturated CSP: rotate past it
        return None

    def _finish(self, batch: _Batch, idx: int, result: OpResult,
                dispatched: bool,
                followups: Sequence[TransferOp] | None) -> None:
        op = batch.ops[idx]
        batch.results[idx] = result
        if dispatched:
            batch.inflight[op.csp_id] -= 1
            batch.inflight_total -= 1
            self._gauge_inflight(batch, op.csp_id)
        if result.ok and op.group is not None and op.group in batch.quota:
            batch.quota[op.group] -= 1
        for extra in followups or ():
            batch.ops.append(extra)
            batch.results.append(None)
            batch.pending.append(len(batch.ops) - 1)
            batch.unresolved += 1
        batch.unresolved -= 1
        self._gauge_queue(batch)

    # -- gauges -----------------------------------------------------------

    def _gauge_inflight(self, batch: _Batch, csp_id: str) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        per_csp = batch.inflight.get(csp_id, 0)
        metrics.set_gauge(POOL_INFLIGHT, per_csp, csp=csp_id)
        metrics.set_gauge(POOL_INFLIGHT_TOTAL, batch.inflight_total)
        peak = metrics.gauge(POOL_INFLIGHT_PEAK)
        peak.set_max(per_csp, csp=csp_id)
        peak.set_max(batch.inflight_total, csp="*")

    def _gauge_queue(self, batch: _Batch | None) -> None:
        if self._metrics is not None:
            depth = len(batch.pending) if batch is not None else 0
            self._metrics.set_gauge(POOL_QUEUE_DEPTH, depth)

    # -- workers ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                task = None
                while task is None:
                    if self._closed:
                        return
                    if self._batch is not None:
                        task = self._claim(self._batch)
                    if task is None:
                        self._work.wait()
                batch = self._batch
                kind, idx = task
            op = batch.ops[idx]
            dispatched = kind == "dispatch"
            metrics = self._metrics
            if dispatched:
                if metrics is not None:
                    metrics.inc(POOL_DISPATCH, csp=op.csp_id)
                result = self._dispatch(op)
            else:
                if metrics is not None:
                    metrics.inc(POOL_CANCELLED, csp=op.csp_id)
                result = self._cancel(op)
            followups = None
            if batch.on_result is not None:
                followups = batch.on_result(result)
            with self._lock:
                self._finish(batch, idx, result, dispatched, followups)
                self._work.notify_all()
                self._done.notify_all()
