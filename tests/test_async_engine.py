"""The transfer engine as an asyncio session drives it.

``AsyncCyrusClient`` runs every pipeline call on its loop's executor,
so the engine's batches are submitted from off-loop threads while the
event loop stays free.  These tests submit batches the same way (a
coroutine awaiting ``run_in_executor``) and pin the engine contracts
that path relies on: the serial short-circuit, admission caps, group
quota cancellation, in-batch follow-ups, ``close``, and the retry
loop's defer / failover / verify decisions.

Concurrency claims are proven with probes and barriers, not timing.
"""

from __future__ import annotations

import asyncio
import functools
import threading

from repro.core.retry import ShareRetryLoop
from repro.core.transfer import DirectEngine, OpKind, TransferOp
from repro.csp.base import CloudProvider, ObjectInfo
from repro.csp.memory import InMemoryCSP
from repro.csp.resilient import RetryPolicy
from repro.errors import CSPAuthError, CSPUnavailableError

WAIT = 10.0  # barrier timeout; a broken barrier lets ops through alone


class Probe:
    """Exact in-flight count and high-water mark, shared as needed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def __enter__(self) -> "Probe":
        with self._lock:
            self.current += 1
            self.peak = max(self.peak, self.current)
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self.current -= 1


class ProbedCSP(CloudProvider):
    """In-memory provider whose uploads pass through probes and an
    optional barrier (forcing that many uploads to overlap)."""

    def __init__(self, csp_id: str, *probes: Probe,
                 barrier: threading.Barrier | None = None):
        super().__init__(csp_id)
        self.inner = InMemoryCSP(csp_id)
        self.probes = probes or (Probe(),)
        self.barrier = barrier

    @property
    def probe(self) -> Probe:
        return self.probes[0]

    def authenticate(self, credentials):
        return self.inner.authenticate(credentials)

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        return self.inner.list(prefix=prefix)

    def upload(self, name: str, data: bytes) -> None:
        for probe in self.probes:
            probe.__enter__()
        try:
            if self.barrier is not None:
                try:
                    self.barrier.wait(timeout=WAIT)
                except threading.BrokenBarrierError:
                    pass
            self.inner.upload(name, data)
        finally:
            for probe in self.probes:
                probe.__exit__()

    def download(self, name: str) -> bytes:
        return self.inner.download(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)


def _put_ops(csp_id: str, n: int, group=None) -> list[TransferOp]:
    return [TransferOp(kind=OpKind.PUT, csp_id=csp_id, name=f"obj-{i}",
                       data=bytes([i]) * 16, group=group)
            for i in range(n)]


def _from_loop(fn, *args, **kwargs):
    """Run a blocking engine call the way a session does: on an
    executor thread, awaited from a coroutine on a running loop."""
    async def main():
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(fn, *args, **kwargs))
    return asyncio.run(main())


# ---------------------------------------------------------------------------
# serial short-circuit: parallelism=1 starts no thread of its own


def test_serial_sync_path_never_starts_loop_or_executor():
    engine = DirectEngine({"m": InMemoryCSP("m")}, parallelism=1)
    before = set(threading.enumerate())
    results = engine.execute(_put_ops("m", 3))
    assert all(r.ok for r in results)
    assert engine._pool is None
    assert set(threading.enumerate()) - before == set()
    engine.close()


# ---------------------------------------------------------------------------
# admission caps


def test_per_csp_and_total_caps_bound_native_concurrency():
    total = Probe()
    barrier = threading.Barrier(2)  # forces pairs of uploads to overlap
    a = ProbedCSP("a", Probe(), total, barrier=barrier)
    b = ProbedCSP("b", Probe(), total, barrier=barrier)
    engine = DirectEngine(
        {"a": a, "b": b}, parallelism=8,
        max_inflight_per_csp=2, max_inflight_total=3,
    )
    try:
        ops = _put_ops("a", 6) + [
            TransferOp(kind=OpKind.PUT, csp_id="b", name=f"b-{i}", data=b"z")
            for i in range(6)
        ]
        results = _from_loop(engine.execute, ops)
        assert all(r.ok for r in results)
        assert a.probe.peak <= 2 and b.probe.peak <= 2
        assert 2 <= total.peak <= 3  # genuinely concurrent, total-capped
        assert a.inner.object_count == 6 and b.inner.object_count == 6
    finally:
        engine.close()


def test_total_cap_of_one_serialises_native_ops():
    csp = ProbedCSP("n")
    engine = DirectEngine({"n": csp}, parallelism=4, max_inflight_total=1)
    try:
        results = _from_loop(engine.execute, _put_ops("n", 5))
        assert all(r.ok for r in results)
        assert csp.probe.peak == 1
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# group quota: stragglers queued behind the cap are cancelled, not run


def test_group_quota_cancels_queued_stragglers():
    csp = ProbedCSP("n")
    engine = DirectEngine({"n": csp}, parallelism=2, max_inflight_total=1)
    try:
        results = _from_loop(engine.execute,
                             _put_ops("n", 3, group="chunk-A"),
                             group_quota={"chunk-A": 1})
        assert sum(1 for r in results if r.ok) == 1
        cancelled = [r for r in results if r.cancelled]
        assert len(cancelled) == 2
        assert all(not r.ok and r.error_type is None for r in cancelled)
        assert csp.inner.object_count == 1  # extras never reached it
    finally:
        engine.close()


def test_on_result_followups_join_the_same_batch():
    csp = ProbedCSP("n")
    engine = DirectEngine({"n": csp}, parallelism=2)
    try:
        def on_result(result):
            if result.op.name == "obj-0":
                return [TransferOp(kind=OpKind.PUT, csp_id="n",
                                   name="followup", data=b"f")]
            return []

        results = _from_loop(engine.execute, _put_ops("n", 2),
                             on_result=on_result)
        names = {r.op.name for r in results}
        assert names == {"obj-0", "obj-1", "followup"}
        assert all(r.ok for r in results)
        assert "followup" in {o.name for o in csp.list()}
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# lifecycle


def test_close_is_idempotent_and_leaves_a_serial_usable_engine():
    engine = DirectEngine({"m": InMemoryCSP("m")}, parallelism=4)
    assert all(r.ok for r in _from_loop(engine.execute, _put_ops("m", 2)))
    pool = engine._pool
    assert pool is not None
    workers = list(pool._threads)
    assert workers
    engine.close()
    engine.close()  # idempotent
    assert engine._pool is None
    assert engine.parallelism == 1 and not engine.parallel_enabled
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    # a closed engine still serves batches, serially
    results = engine.execute(
        [TransferOp(kind=OpKind.GET, csp_id="m", name="obj-0", size=16)]
    )
    assert results[0].ok
    assert engine._pool is None


# ---------------------------------------------------------------------------
# retry campaign (ShareRetryLoop over the pooled engine)


class FlakyOnce(InMemoryCSP):
    def __init__(self, csp_id: str):
        super().__init__(csp_id)
        self.calls = 0

    def upload(self, name, data):
        self.calls += 1
        if self.calls == 1:
            raise CSPUnavailableError("blip", csp_id=self.csp_id)
        super().upload(name, data)


class AlwaysAuthFail(InMemoryCSP):
    def upload(self, name, data):
        raise CSPAuthError("injected permanent failure", csp_id=self.csp_id)


def test_retry_loop_transient_defers_to_next_round_on_async_engine():
    flaky = FlakyOnce("flaky")
    engine = DirectEngine({"flaky": flaky}, parallelism=2)
    try:
        loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=3,
                                                         base_delay=0.0))
        results, attempts = _from_loop(
            loop.run,
            items=[("s0", "flaky")],
            build_op=lambda key, csp: TransferOp(
                kind=OpKind.PUT, csp_id=csp, name="s0", data=b"y" * 16),
            on_success=lambda key, csp, result: None,
            on_giveup=lambda key, csp, result: None,
            pick_alternate=lambda key, csp, tried: None,
        )
        assert [a.ok for a in attempts["s0"]] == [False, True]
        assert [a.round_no for a in attempts["s0"]] == [0, 1]
        assert flaky.object_count == 1
    finally:
        engine.close()


def test_retry_loop_fails_over_to_alternate_on_async_engine():
    bad, alt = AlwaysAuthFail("bad"), InMemoryCSP("alt")
    engine = DirectEngine({"bad": bad, "alt": alt}, parallelism=2)
    try:
        loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=2,
                                                         base_delay=0.0))
        landed = {}
        results, attempts = _from_loop(
            loop.run,
            items=[("s0", "bad")],
            build_op=lambda key, csp: TransferOp(
                kind=OpKind.PUT, csp_id=csp, name="s0", data=b"x" * 16),
            on_success=lambda key, csp, result: landed.setdefault(key, csp),
            on_giveup=lambda key, csp, result: None,
            pick_alternate=lambda key, csp, tried: (
                "alt" if "alt" not in tried else None),
        )
        assert landed == {"s0": "alt"}
        assert alt.object_count == 1
        assert [a.csp_id for a in attempts["s0"]] == ["bad", "alt"]
    finally:
        engine.close()
