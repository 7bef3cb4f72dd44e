"""Unit tests for transfer engines and the event receiver."""

import pytest

from repro.core.transfer import (
    DirectEngine,
    OpKind,
    SimulatedEngine,
    TransferOp,
    TransferReceiver,
)
from repro.csp import InMemoryCSP
from repro.errors import TransferError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.netsim import Link
from repro.util.clock import SimClock


class TestDirectEngine:
    def engine(self):
        providers = {f"c{i}": InMemoryCSP(f"c{i}") for i in range(2)}
        return DirectEngine(providers), providers

    def test_put_get_delete(self):
        engine, providers = self.engine()
        put = engine.execute(
            [TransferOp(OpKind.PUT, "c0", "obj", data=b"bytes")]
        )[0]
        assert put.ok
        get = engine.execute([TransferOp(OpKind.GET, "c0", "obj")])[0]
        assert get.ok and get.data == b"bytes"
        rm = engine.execute([TransferOp(OpKind.DELETE, "c0", "obj")])[0]
        assert rm.ok

    def test_missing_object_fails_op(self):
        engine, _ = self.engine()
        res = engine.execute([TransferOp(OpKind.GET, "c0", "ghost")])[0]
        assert not res.ok and res.error

    def test_unknown_provider(self):
        engine, _ = self.engine()
        with pytest.raises(TransferError):
            engine.execute([TransferOp(OpKind.GET, "zzz", "x")])

    def test_put_without_data(self):
        engine, _ = self.engine()
        with pytest.raises(TransferError):
            engine.execute([TransferOp(OpKind.PUT, "c0", "x")])

    def test_group_quota(self):
        engine, _ = self.engine()
        ops = [
            TransferOp(OpKind.PUT, "c0", f"o{i}", data=b"x", group="g")
            for i in range(3)
        ]
        results = engine.execute(ops, group_quota={"g": 2})
        assert [r.ok for r in results] == [True, True, False]
        assert results[2].cancelled

    def test_register_unregister(self):
        engine, _ = self.engine()
        engine.register_provider(InMemoryCSP("new"))
        engine.execute([TransferOp(OpKind.PUT, "new", "o", data=b"1")])
        engine.unregister_provider("new")
        with pytest.raises(TransferError):
            engine.provider("new")

    def test_uniform_link_caps(self):
        engine, _ = self.engine()
        assert engine.link_caps("down") == {"c0": 1.0, "c1": 1.0}


def on_c0(kind, **kwargs):
    """A one-spec plan aimed at provider c0."""
    return FaultPlan([FaultSpec(kind, csp_ids=("c0",), **kwargs)])


class TestSimulatedEngine:
    def engine(self, rates=(2e6, 2e6), rtt=0.0, faults=None, **kwargs):
        clock = SimClock()
        links = {
            f"c{i}": Link.symmetric(f"c{i}", rate, rtt_s=rtt)
            for i, rate in enumerate(rates)
        }
        providers = {cid: InMemoryCSP(cid) for cid in links}
        if faults is not None:
            providers = {cid: FaultyProvider(store, faults, clock=clock)
                         for cid, store in providers.items()}
        return SimulatedEngine(providers, links, clock, **kwargs), clock

    def test_timing(self):
        engine, clock = self.engine()
        res = engine.execute(
            [TransferOp(OpKind.PUT, "c0", "o", data=b"x" * 2_000_000)]
        )[0]
        assert res.ok
        assert res.duration == pytest.approx(1.0)
        assert clock.now() == pytest.approx(1.0)

    def test_parallel_batch_advances_to_max(self):
        engine, clock = self.engine(rates=(1e6, 4e6))
        engine.execute(
            [
                TransferOp(OpKind.PUT, "c0", "a", data=b"x" * 1_000_000),
                TransferOp(OpKind.PUT, "c1", "b", data=b"y" * 1_000_000),
            ]
        )
        assert clock.now() == pytest.approx(1.0)  # slower one dominates

    def test_get_uses_size_hint(self):
        engine, _ = self.engine()
        engine.execute([TransferOp(OpKind.PUT, "c0", "o", data=b"z" * 500)])
        res = engine.execute(
            [TransferOp(OpKind.GET, "c0", "o", size=500)]
        )[0]
        assert res.ok and res.data == b"z" * 500

    def test_down_provider_fails_fast(self):
        # issued inside the outage: the flow runs, the op fails on landing
        engine, clock = self.engine(
            faults=on_c0(FaultKind.OUTAGE, window_time=(0.0, 100.0)))
        res = engine.execute(
            [TransferOp(OpKind.PUT, "c0", "o", data=b"x" * 2_000)]
        )[0]
        assert not res.ok
        assert res.error_type == "CSPUnavailableError" and res.retryable
        assert res.end == pytest.approx(0.001) == clock.now()

    def test_mid_transfer_outage_fails_op(self):
        # provider up at issue, down by completion time
        engine, clock = self.engine(
            rates=(1e6,),
            faults=on_c0(FaultKind.OUTAGE, window_time=(1.0, 100.0)),
        )
        res = engine.execute(
            [TransferOp(OpKind.PUT, "c0", "o", data=b"x" * 3_000_000)]
        )[0]
        assert not res.ok
        assert res.error_type == "CSPUnavailableError" and res.retryable
        assert res.end == pytest.approx(3.0) == clock.now()

    def test_outage_that_ends_before_completion_lets_the_op_land(self):
        # down at issue, back up by completion time
        engine, _ = self.engine(
            rates=(1e6,),
            faults=on_c0(FaultKind.OUTAGE, window_time=(0.0, 1.0)),
        )
        res = engine.execute(
            [TransferOp(OpKind.PUT, "c0", "o", data=b"x" * 3_000_000)]
        )[0]
        assert res.ok and res.end == pytest.approx(3.0)
        assert engine.provider("c0").inner.download("o") == b"x" * 3_000_000

    def test_ops_are_applied_in_completion_order_on_the_clock(self):
        engine, clock = self.engine(rates=(1e6, 4e6))
        landed = []

        class Stamped(InMemoryCSP):
            def upload(self, name, data):
                landed.append((name, clock.now()))
                super().upload(name, data)

        for cid in ("c0", "c1"):
            engine.register_provider(Stamped(cid))
        engine.execute([
            TransferOp(OpKind.PUT, "c0", "slow", data=b"x" * 1_000_000),
            TransferOp(OpKind.PUT, "c1", "fast", data=b"y" * 1_000_000),
        ])
        assert landed == [("fast", pytest.approx(0.25)),
                          ("slow", pytest.approx(1.0))]

    def test_injected_latency_pushes_back_later_completions(self):
        engine, clock = self.engine(
            faults=on_c0(FaultKind.LATENCY, delay_s=5.0))
        quick, slow = engine.execute([
            TransferOp(OpKind.PUT, "c0", "a", data=b"x" * 2_000),
            TransferOp(OpKind.PUT, "c1", "b", data=b"y" * 1_000_000),
        ])
        assert quick.ok and slow.ok
        assert quick.end == pytest.approx(5.001)
        assert slow.end == pytest.approx(5.001)  # landed after the delay
        assert clock.now() == pytest.approx(5.001)
        listing = engine.execute([TransferOp(OpKind.LIST, "c0", "")])[0]
        assert listing.ok and [i.name for i in listing.listing] == ["a"]
        assert listing.end == pytest.approx(10.001) == clock.now()

    def test_client_cap_respected(self):
        engine, clock = self.engine(rates=(10e6, 10e6), client_up=10e6)
        engine.execute(
            [
                TransferOp(OpKind.PUT, "c0", "a", data=b"x" * 10_000_000),
                TransferOp(OpKind.PUT, "c1", "b", data=b"y" * 10_000_000),
            ]
        )
        assert clock.now() == pytest.approx(2.0)

    def test_link_caps_reflect_now(self):
        engine, _ = self.engine(rates=(5e6, 1e6))
        caps = engine.link_caps("down")
        assert caps["c0"] == 5e6 and caps["c1"] == 1e6

    def test_rtt_charged(self):
        engine, clock = self.engine(rates=(1e6,), rtt=0.5)
        engine.execute([TransferOp(OpKind.GET_META, "c0", "x", size=0)])
        # GET of missing object still costs the RTT, then fails
        assert clock.now() == pytest.approx(0.5)


class TestReceiver:
    def result(self, ok=True, chunk="c" * 40, file_key="f", kind=OpKind.PUT):
        from repro.core.transfer import OpResult

        op = TransferOp(kind, "csp", "name", data=b"x", chunk_id=chunk,
                        file_key=file_key)
        return OpResult(op=op, ok=ok, start=0.0, end=1.0)

    def test_share_complete(self):
        recv = TransferReceiver()
        assert recv.share_complete(self.result(ok=True))
        assert not recv.share_complete(self.result(ok=False))

    def test_chunk_complete_counts(self):
        recv = TransferReceiver()
        recv.expect_chunk("c" * 40, shares_needed=2, file_key="f")
        recv.on_result(self.result())
        assert not recv.chunk_complete("c" * 40)
        recv.on_result(self.result())
        assert recv.chunk_complete("c" * 40)

    def test_failures_dont_count(self):
        recv = TransferReceiver()
        recv.expect_chunk("c" * 40, shares_needed=1)
        recv.on_result(self.result(ok=False))
        assert not recv.chunk_complete("c" * 40)

    def test_file_complete_needs_all_chunks(self):
        recv = TransferReceiver()
        recv.expect_chunk("a" * 40, 1, file_key="f")
        recv.expect_chunk("b" * 40, 1, file_key="f")
        recv.on_result(self.result(chunk="a" * 40))
        assert not recv.file_complete("f")
        recv.on_result(self.result(chunk="b" * 40))
        assert recv.file_complete("f")

    def test_events_logged(self):
        recv = TransferReceiver()
        recv.on_result(self.result())
        assert len(recv.events) == 1
