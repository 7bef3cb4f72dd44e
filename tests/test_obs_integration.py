"""Acceptance tests for the observability layer.

Two ends of the truth spectrum:

* a simulated multi-CSP run on the paper testbed, where the netsim's
  own flow accounting and the providers' stored objects are the ground
  truth the trace and metrics must match byte-for-byte;
* a scripted fault plan on a direct engine, where the injected
  transient count is the ground truth the retry/failure counters must
  match exactly.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.bench import build_paper_testbed
from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes


class TestSimulatedAcceptance:
    """Paper-testbed sync: trace + metrics vs netsim/storage ground truth."""

    def _run(self):
        env = build_paper_testbed()
        self.list_calls = Counter()
        for csp in env.csps.values():
            def counted(*, prefix="", _csp=csp, _list=csp.list):
                self.list_calls[_csp.csp_id] += 1
                return _list(prefix=prefix)

            csp.list = counted
        config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        client = env.new_client(config)
        files = {
            f"f{i}.bin": deterministic_bytes(3000 + 500 * i, seed=40 + i)
            for i in range(3)
        }
        for name, data in files.items():
            client.put(name, data, sync_first=False)
        for name, data in files.items():
            assert client.get(name, sync_first=False).data == data
        client.sync()
        return env, client

    def test_trace_is_well_formed_and_exports_parse(self):
        env, _client = self._run()
        tracer = env.obs.tracer
        assert tracer.check_well_formed() == []
        parsed = json.loads(tracer.to_json())
        assert parsed["spans"]
        chrome = json.loads(tracer.to_chrome_json())
        assert any(e.get("ph") == "X" for e in chrome["traceEvents"])
        # the spans of record exist: one upload/download per file, a sync
        assert len(tracer.find("upload")) == 3
        assert len(tracer.find("download")) == 3
        assert len(tracer.find("sync")) == 1

    def test_engine_byte_counters_match_netsim_flow_accounting(self):
        env, _client = self._run()
        snap = env.obs.snapshot()
        # nothing was cancelled, so the two ledgers must agree exactly
        assert snap.counter_total("netsim_flows_total",
                                  outcome="cancelled") == 0
        for csp_id in env.csps:
            for direction in ("up", "down"):
                engine_bytes = snap.counter_total(
                    "cyrus_transfer_bytes_total",
                    csp=csp_id, direction=direction,
                )
                netsim_bytes = snap.counter_total(
                    "netsim_bytes_total", link=csp_id, direction=direction,
                )
                assert engine_bytes == netsim_bytes, (
                    f"{csp_id}/{direction}: engine says {engine_bytes}, "
                    f"netsim says {netsim_bytes}"
                )

    def test_op_counts_match_netsim_flow_counts(self):
        """Every ok op but a listing is one completed flow; a listing
        opens no flow and is one provider ``list`` call."""
        env, _client = self._run()
        snap = env.obs.snapshot()
        assert sum(self.list_calls.values()) > 0
        for csp_id in env.csps:
            ok = snap.counter_by("cyrus_ops_total", "kind", csp=csp_id,
                                 outcome="ok")
            lists = ok.pop("LIST", 0)
            flows = snap.counter_total("netsim_flows_total", link=csp_id,
                                       outcome="completed")
            assert sum(ok.values()) == flows
            assert lists == self.list_calls[csp_id]

    def test_uploaded_bytes_match_stored_objects(self):
        env, _client = self._run()
        snap = env.obs.snapshot()
        for csp_id, csp in env.csps.items():
            stored = csp.stored_bytes
            uploaded = snap.counter_total(
                "cyrus_transfer_bytes_total", csp=csp_id, direction="up"
            )
            assert uploaded == stored

    def test_timeline_reconstructs_parallel_share_transfers(self):
        env, client = self._run()
        timeline = env.obs.timeline()
        lanes = timeline.lanes()
        # every provider that holds shares has a lane
        assert set(lanes) == set(env.csps)
        # chunk transfer intervals cover every stored chunk
        stats = client.storage_stats()
        assert stats["files"] == 3
        chunk_ids = {
            bar.chunk_id for bar in timeline.bars if bar.chunk_id
        }
        assert len(chunk_spans := timeline.chunk_spans()) == len(chunk_ids)
        for start, end in chunk_spans.values():
            assert timeline.start <= start <= end <= timeline.end
        # the ASCII sketch renders one row per lane plus the axis
        art = timeline.render_ascii(width=60)
        assert len(art.splitlines()) == len(lanes) + 1


class TestScriptedFaultAccounting:
    """A deterministic fault plan; metrics must match it exactly."""

    def _run(self, max_hits: int = 2):
        clock = SimClock()
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.TRANSIENT,
                       ops=("upload", "download"),
                       max_hits=max_hits)],
            seed=11,
        )
        providers = [
            FaultyProvider(InMemoryCSP(f"csp{i}"), plan, clock=clock)
            for i in range(4)
        ]
        config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
        client = CyrusClient.create(
            providers, config, client_id="alice", engine=engine
        )
        for i in range(4):
            name = f"f{i}.bin"
            data = deterministic_bytes(1500 + 300 * i, seed=70 + i)
            client.put(name, data, sync_first=False)
            assert client.get(name, sync_first=False).data == data
        return providers, client, client.obs.snapshot()

    def test_injected_transients_equal_retried_ops(self):
        providers, _client, snap = self._run()
        injected = sum(
            p.injected_faults.get(FaultKind.TRANSIENT, 0) for p in providers
        )
        assert injected > 0  # the plan actually bit
        retried = (snap.counter_total("cyrus_share_retries_total")
                   + snap.counter_total("cyrus_meta_retries_total"))
        # every injected transient fails exactly one op, and every such
        # failure is retried on the same provider (budget 3 > max_hits 2,
        # breaker threshold 5 > max_hits): the two ledgers match exactly
        assert retried == injected
        # ...and no failure escalated to a failover
        assert snap.counter_total("cyrus_share_failovers_total") == 0

    def test_per_provider_failure_counters_match_fault_logs(self):
        providers, _client, snap = self._run()
        for p in providers:
            injected = p.injected_faults.get(FaultKind.TRANSIENT, 0)
            failures = snap.counter_total(
                "cyrus_op_failures_total",
                csp=p.csp_id, error_type="CSPUnavailableError",
            )
            assert failures == injected

    def test_fault_free_run_counts_no_retries(self):
        providers, _client, snap = self._run(max_hits=1)
        # sanity check on the other side: remove the hits and re-run clean
        clock = SimClock()
        clean = [InMemoryCSP(f"csp{i}") for i in range(4)]
        config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        engine = DirectEngine({p.csp_id: p for p in clean}, clock=clock)
        client = CyrusClient.create(clean, config, client_id="alice",
                                    engine=engine)
        client.put("f.bin", deterministic_bytes(2000, seed=90),
                   sync_first=False)
        snap2 = client.obs.snapshot()
        assert snap2.counter_total("cyrus_share_retries_total") == 0
        assert snap2.counter_total("cyrus_meta_retries_total") == 0
        assert snap2.counter_total("cyrus_op_failures_total") == 0
