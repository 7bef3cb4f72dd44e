"""Deterministic unit tests for the scatter/gather pool.

The fake provider here is barrier-instrumented: operations can be made
to rendezvous (proving genuine concurrency) or to block on events
(pinning completion order), so every assertion about interleaving is
forced by synchronisation rather than by timing luck.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.parallel import ScatterGatherPool
from repro.core.retry import ShareRetryLoop
from repro.core.transfer import DirectEngine, OpKind, TransferOp
from repro.csp.base import CloudProvider, ObjectInfo
from repro.csp.memory import InMemoryCSP
from repro.csp.resilient import RetryPolicy
from repro.errors import CSPAuthError, CSPUnavailableError
from repro.obs import Observability


WAIT = 10.0  # generous sync timeout; tests fail (not hang) past this


class ConcurrencyProbe:
    """Shared in-flight tracker: exact current and high-water counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.max_seen = 0

    def __enter__(self) -> "ConcurrencyProbe":
        with self._lock:
            self.current += 1
            self.max_seen = max(self.max_seen, self.current)
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self.current -= 1


class GateProvider(CloudProvider):
    """An in-memory provider whose ops pass through optional gates.

    ``barrier``: every upload/download waits at the barrier, so a test
    can require K ops to be in flight simultaneously before any may
    finish.  ``hold``: ops block until the event is set.  The probe (one
    per provider or shared across a fleet) records true concurrency.
    """

    def __init__(self, csp_id: str, probe: ConcurrencyProbe | None = None,
                 barrier: threading.Barrier | None = None,
                 hold: threading.Event | None = None):
        super().__init__(csp_id)
        self.inner = InMemoryCSP(csp_id)
        self.probe = probe if probe is not None else ConcurrencyProbe()
        self.barrier = barrier
        self.hold = hold
        self.uploads: list[str] = []
        self._lock = threading.Lock()

    def _gate(self) -> None:
        if self.barrier is not None:
            try:
                self.barrier.wait(timeout=WAIT)
            except threading.BrokenBarrierError:
                pass  # an odd trailing op: let it through alone
        if self.hold is not None:
            self.hold.wait(timeout=WAIT)

    def authenticate(self, credentials):
        return self.inner.authenticate(credentials)

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        return self.inner.list(prefix=prefix)

    def upload(self, name: str, data: bytes) -> None:
        with self.probe:
            self._gate()
            with self._lock:
                self.uploads.append(name)
            self.inner.upload(name, data)

    def download(self, name: str) -> bytes:
        with self.probe:
            self._gate()
            return self.inner.download(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)


def _put_ops(csp_id: str, count: int, group=None) -> list[TransferOp]:
    return [
        TransferOp(kind=OpKind.PUT, csp_id=csp_id, name=f"obj-{csp_id}-{i}",
                   data=bytes([i % 256]) * 64, group=group)
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# admission bounds


def test_per_csp_bound_is_respected_and_reached():
    # 6 ops to one CSP, 4 workers, per-CSP bound 2: the barrier forces
    # pairs of ops to be in flight together (lower bound), the probe
    # proves the bound was never exceeded (upper bound).
    provider = GateProvider("csp0", barrier=threading.Barrier(2))
    engine = DirectEngine({"csp0": provider}, parallelism=4,
                          max_inflight_per_csp=2)
    results = engine.execute(_put_ops("csp0", 6))
    assert all(r.ok for r in results)
    assert provider.probe.max_seen == 2
    assert provider.inner.object_count == 6


def test_total_bound_is_respected_across_csps():
    # 8 ops spread over 4 CSPs, 4 workers, total bound 2 and no per-CSP
    # bound: one shared probe sees at most 2 in flight anywhere.
    probe = ConcurrencyProbe()
    barrier = threading.Barrier(2)
    providers = {
        f"csp{i}": GateProvider(f"csp{i}", probe=probe, barrier=barrier)
        for i in range(4)
    }
    engine = DirectEngine(providers, parallelism=4,
                          max_inflight_total=2)
    ops = [op for i in range(4) for op in _put_ops(f"csp{i}", 2)]
    results = engine.execute(ops)
    assert all(r.ok for r in results)
    assert probe.max_seen == 2


def test_one_saturated_csp_does_not_starve_others():
    # csp_slow's only admission slot is held by an op blocked on an
    # event; ops for csp_fast must still dispatch and complete while it
    # is stuck (the scheduler scans past saturated providers).
    hold = threading.Event()
    slow = GateProvider("slow", hold=hold)
    fast = GateProvider("fast")
    engine = DirectEngine({"slow": slow, "fast": fast}, parallelism=3,
                          max_inflight_per_csp=1)
    done_fast = threading.Event()
    results: list = []

    def run():
        ops = _put_ops("slow", 1) + _put_ops("fast", 4)
        results.extend(engine.execute(ops))

    runner = threading.Thread(target=run)
    runner.start()
    # wait (bounded) for the fast CSP to finish all four uploads while
    # the slow op is still held
    deadline = time.monotonic() + WAIT
    while time.monotonic() < deadline and fast.inner.object_count < 4:
        time.sleep(0.005)
    fast_done_while_slow_held = fast.inner.object_count == 4
    done_fast.set()
    hold.set()
    runner.join(timeout=WAIT)
    assert not runner.is_alive()
    assert fast_done_while_slow_held
    assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# group quotas: straggler cancellation


def test_straggler_cancellation_skips_queued_ops():
    # total bound 1 serialises dispatch; once the first op of the group
    # succeeds the quota is spent, so the two queued ops are cancelled
    # without ever reaching the provider.
    provider = GateProvider("csp0")
    engine = DirectEngine({"csp0": provider}, parallelism=2,
                          max_inflight_total=1)
    results = engine.execute(_put_ops("csp0", 3, group="chunk-A"),
                             group_quota={"chunk-A": 1})
    assert sum(1 for r in results if r.ok) == 1
    assert sum(1 for r in results if r.cancelled) == 2
    assert len(provider.uploads) == 1


# ---------------------------------------------------------------------------
# failover streams, it does not wait for stragglers


def test_failover_on_first_error_does_not_wait_for_stragglers():
    # csp_bad fails permanently (auth): the retry loop must re-dispatch
    # that share to csp_alt immediately, while csp_slow's op is still in
    # flight.  csp_slow's op only completes after csp_alt has uploaded,
    # so any wait-for-the-whole-round implementation deadlocks here
    # (and fails the ordering flag below instead of hanging, thanks to
    # the bounded event wait).
    alt_uploaded = threading.Event()

    class BadProvider(GateProvider):
        def upload(self, name: str, data: bytes) -> None:
            raise CSPAuthError("injected permanent failure",
                               csp_id=self.csp_id)

    class AltProvider(GateProvider):
        def upload(self, name: str, data: bytes) -> None:
            super().upload(name, data)
            alt_uploaded.set()

    bad = BadProvider("bad")
    slow = GateProvider("slow", hold=alt_uploaded)
    alt = AltProvider("alt")
    engine = DirectEngine({"bad": bad, "slow": slow, "alt": alt},
                          parallelism=3)
    loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=2,
                                                     base_delay=0.0))
    landed: dict = {}

    def build_op(key, csp):
        return TransferOp(kind=OpKind.PUT, csp_id=csp, name=f"share-{key}",
                          data=b"x" * 32)

    def on_success(key, csp, result):
        landed[key] = csp

    results, attempts = loop.run(
        items=[("s-bad", "bad"), ("s-slow", "slow")],
        build_op=build_op,
        on_success=on_success,
        on_giveup=lambda key, csp, result: None,
        pick_alternate=lambda key, csp, tried: "alt",
    )
    assert landed == {"s-bad": "alt", "s-slow": "slow"}
    assert alt.inner.object_count == 1
    # the slow op finished *after* the failover landed — by construction
    # it could not complete before alt's upload set the event
    assert alt_uploaded.is_set()
    history = [a.csp_id for a in attempts["s-bad"]]
    assert history == ["bad", "alt"]


def test_transient_failures_defer_to_next_round_with_backoff():
    calls = {"n": 0}

    class FlakyProvider(GateProvider):
        def upload(self, name: str, data: bytes) -> None:
            calls["n"] += 1
            if calls["n"] == 1:
                raise CSPUnavailableError("blip", csp_id=self.csp_id)
            super().upload(name, data)

    flaky = FlakyProvider("flaky")
    engine = DirectEngine({"flaky": flaky}, parallelism=2)
    loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=3,
                                                     base_delay=0.0))
    results, attempts = loop.run(
        items=[("s0", "flaky")],
        build_op=lambda key, csp: TransferOp(
            kind=OpKind.PUT, csp_id=csp, name="s0", data=b"y" * 16),
        on_success=lambda key, csp, result: None,
        on_giveup=lambda key, csp, result: None,
        pick_alternate=lambda key, csp, tried: None,
    )
    assert [a.ok for a in attempts["s0"]] == [False, True]
    # the retry ran in a later round (same provider), not as a failover
    assert [a.round_no for a in attempts["s0"]] == [0, 1]
    assert flaky.inner.object_count == 1


# ---------------------------------------------------------------------------
# serial identity


def test_parallelism_one_is_bit_for_bit_serial():
    def fleet():
        return {f"csp{i}": InMemoryCSP(f"csp{i}") for i in range(3)}

    ops = lambda: (  # noqa: E731 - tiny local factory
        _put_ops("csp0", 2, group="g") + _put_ops("csp1", 2, group="g")
        + _put_ops("csp2", 1)
    )
    serial_csps = fleet()
    direct = DirectEngine(serial_csps)
    direct_results = direct.execute(ops(), group_quota={"g": 3})
    par_csps = fleet()
    parallel = DirectEngine(par_csps, parallelism=1,
                            max_inflight_per_csp=2)
    parallel_results = parallel.execute(ops(), group_quota={"g": 3})
    assert parallel._pool is None  # no threads were ever started
    assert len(direct_results) == len(parallel_results)
    for a, b in zip(direct_results, parallel_results):
        assert (a.ok, a.cancelled, a.error_type, a.op.name, a.op.csp_id) == \
               (b.ok, b.cancelled, b.error_type, b.op.name, b.op.csp_id)
    for csp_id in serial_csps:
        assert (serial_csps[csp_id].object_count
                == par_csps[csp_id].object_count)


def test_serial_streaming_emulation_runs_followups():
    # without a pool, on_result follow-ups run as a further wave after
    # the batch, under the batch's own quota dict
    engine = DirectEngine({"m": InMemoryCSP("m")})
    fired = []

    def on_result(result):
        fired.append(result.op.name)
        if result.op.name == "obj-m-0":
            return [
                TransferOp(kind=OpKind.PUT, csp_id="m", name="followup",
                           data=b"f", group="g"),
                TransferOp(kind=OpKind.PUT, csp_id="m", name="extra",
                           data=b"e"),
            ]
        return []

    results = engine.execute(_put_ops("m", 2, group="g"),
                             group_quota={"g": 2}, on_result=on_result)
    assert [r.op.name for r in results] == [
        "obj-m-0", "obj-m-1", "followup", "extra"]
    assert fired == ["obj-m-0", "obj-m-1", "followup", "extra"]
    assert [r.ok for r in results] == [True, True, False, True]
    assert results[2].cancelled  # the batch already spent the quota


class _Blip(InMemoryCSP):
    """Fails its first two uploads with a transient outage."""

    def __init__(self, csp_id: str):
        super().__init__(csp_id)
        self.blips = 2

    def upload(self, name, data):
        if self.blips:
            self.blips -= 1
            raise CSPUnavailableError("blip", csp_id=self.csp_id)
        super().upload(name, data)


class _Refuses(InMemoryCSP):
    def upload(self, name, data):
        raise CSPAuthError("injected permanent failure", csp_id=self.csp_id)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_retry_decision_is_the_same_serial_and_pooled(parallelism):
    # one scripted campaign: transient x2 then ok; permanent -> alternate.
    # Serial and pooled runs must agree on every attempt and counter; the
    # only difference is *when* a failover runs (next round serially,
    # in-batch pooled).
    providers = {"flaky": _Blip("flaky"), "bad": _Refuses("bad"),
                 "alt": InMemoryCSP("alt")}
    engine = DirectEngine(providers, parallelism=parallelism)
    engine.obs = Observability()
    loop = ShareRetryLoop(engine, policy=RetryPolicy(max_attempts=3,
                                                     base_delay=0.0))

    def build_op(key, csp):
        return TransferOp(kind=OpKind.PUT, csp_id=csp, name=key,
                          data=b"x" * 16)

    landed, gave_up = {}, []
    _results, attempts = loop.run(
        items=[("t", "flaky"), ("p", "bad")],
        build_op=build_op,
        on_success=lambda key, csp, result: landed.setdefault(key, csp),
        on_giveup=lambda key, csp, result: gave_up.append((key, csp)),
        pick_alternate=lambda key, csp, tried: (
            "alt" if "alt" not in tried else None),
    )
    engine.close()
    failover_round = 1 if parallelism == 1 else 0
    history = {key: [(a.csp_id, a.round_no, a.ok, a.error_type) for a in tries]
               for key, tries in attempts.items()}
    assert history == {
        "t": [("flaky", 0, False, "CSPUnavailableError"),
              ("flaky", 1, False, "CSPUnavailableError"),
              ("flaky", 2, True, None)],
        "p": [("bad", 0, False, "CSPAuthError"),
              ("alt", failover_round, True, None)],
    }
    assert landed == {"t": "flaky", "p": "alt"}
    assert sorted(gave_up) == [("p", "bad")]
    snap = engine.obs.snapshot()
    assert snap.counter_by("cyrus_share_retries_total", "csp") == {
        "flaky": 2}
    assert snap.counter_by("cyrus_share_failovers_total", "from_csp") == {
        "bad": 1}
    assert snap.counter_total("cyrus_share_failovers_total",
                              to_csp="alt") == 1


# ---------------------------------------------------------------------------
# observability


def test_pool_occupancy_gauges_and_counters():
    provider = GateProvider("csp0", barrier=threading.Barrier(2))
    engine = DirectEngine({"csp0": provider}, parallelism=4,
                          max_inflight_per_csp=2)
    engine.obs = Observability()
    results = engine.execute(_put_ops("csp0", 6))
    assert all(r.ok for r in results)
    snap = engine.obs.snapshot()
    assert snap.counter_value("cyrus_pool_dispatch_total", csp="csp0") == 6
    assert snap.gauge_value("cyrus_pool_inflight_peak", csp="csp0") == 2
    assert snap.gauge_value("cyrus_pool_inflight_peak", csp="*") == 2
    # live gauges drain back to zero once the batch is done
    assert snap.gauge_value("cyrus_pool_inflight", csp="csp0") == 0
    assert snap.gauge_value("cyrus_pool_inflight_total") == 0
    assert snap.gauge_value("cyrus_pool_queue_depth") == 0


def test_cancelled_counter_counts_quota_skips():
    provider = GateProvider("csp0")
    engine = DirectEngine({"csp0": provider}, parallelism=2,
                          max_inflight_total=1)
    engine.obs = Observability()
    engine.execute(_put_ops("csp0", 3, group="g"), group_quota={"g": 1})
    snap = engine.obs.snapshot()
    assert snap.counter_total("cyrus_pool_cancelled_total") == 2


# ---------------------------------------------------------------------------
# pool plumbing


def test_pool_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ScatterGatherPool(workers=0)
    with pytest.raises(ValueError):
        ScatterGatherPool(workers=2, max_inflight_per_csp=0)
    with pytest.raises(ValueError):
        DirectEngine({}, parallelism=0)


def test_pool_reusable_across_batches():
    provider = GateProvider("csp0")
    engine = DirectEngine({"csp0": provider}, parallelism=3)
    for batch in range(3):
        results = engine.execute(_put_ops("csp0", 4))
        assert all(r.ok for r in results)
    assert provider.inner.object_count == 4  # same names overwritten
    engine.close()
    # a closed engine falls back to the serial path and still works
    results = engine.execute(_put_ops("csp0", 2))
    assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# injected-clock backoff (the ShareRetryLoop wall-clock sleep fix)


class FakeClock:
    """A test clock: manual time, recorded sleeps, zero real waiting."""

    def __init__(self) -> None:
        self.t = 0.0
        self.slept: list[float] = []

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.t += seconds


def test_retry_backoff_uses_injected_clock_not_wall_clock():
    calls = {"n": 0}

    class Flaky(GateProvider):
        def upload(self, name: str, data: bytes) -> None:
            calls["n"] += 1
            if calls["n"] < 3:
                raise CSPUnavailableError("blip", csp_id=self.csp_id)
            super().upload(name, data)

    fake = FakeClock()
    engine = DirectEngine({"f": Flaky("f")}, clock=fake)
    # base_delay of 10 *wall* seconds would blow the test timeout many
    # times over if the loop slept for real
    policy = RetryPolicy(max_attempts=3, base_delay=10.0, jitter=0.0)
    loop = ShareRetryLoop(engine, policy=policy)
    t0 = time.monotonic()
    results, attempts = loop.run(
        items=[("s0", "f")],
        build_op=lambda key, csp: TransferOp(
            kind=OpKind.PUT, csp_id=csp, name="s0", data=b"z" * 8),
        on_success=lambda key, csp, result: None,
        on_giveup=lambda key, csp, result: None,
        pick_alternate=lambda key, csp, tried: None,
    )
    elapsed = time.monotonic() - t0
    assert [a.ok for a in attempts["s0"]] == [False, False, True]
    assert fake.slept == [policy.delay(1), policy.delay(2)]
    assert elapsed < 5.0  # no real 10s/20s sleeps happened
