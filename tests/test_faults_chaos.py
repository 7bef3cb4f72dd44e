"""Seeded chaos: many upload/download cycles under a mixed fault plan.

The ISSUE's acceptance scenario: run >= 20 put/get cycles against
providers wrapped in a :class:`FaultyProvider` applying transient blips,
an op-windowed outage, latency spikes and share corruption — and prove

* zero data loss and zero hangs whenever >= t shares stay reachable,
* byte-identical fault schedules for identical seeds, and
* that the circuit breaker stops dispatching to a dead provider
  (an operation-count assertion, not just a state check).

Everything runs on a shared :class:`SimClock`, so backoff sleeps and
breaker timeouts advance simulated time — the suite never really sleeps.
"""

from __future__ import annotations

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine, OpKind, TransferOp
from repro.csp.memory import InMemoryCSP
from repro.errors import CSPError, InsufficientSharesError
from repro.csp.resilient import BreakerState, HealthRegistry
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CYCLES = 24


def _chaos_plan(seed: int) -> FaultPlan:
    """Mixed faults, bounded for recoverability with (t, n) = (2, 3):
    corruption and the windowed outage both land on csp1, so at any
    instant at most one provider (= n - t) is lying or dark; transient
    blips and latency spikes hit everybody."""
    return FaultPlan.chaos(
        seed=seed,
        transient_rate=0.08,
        corrupt_csp_ids=("csp1",),
        corrupt_rate=0.5,
        outage_csp_id="csp1",
        outage_window_ops=(40, 90),
        latency_rate=0.05,
        latency_s=0.1,
    )


def _run_scenario(seed: int):
    """One full chaos run; returns (fault logs, providers, client)."""
    clock = SimClock()
    plan = _chaos_plan(seed)
    providers = [
        FaultyProvider(InMemoryCSP(f"csp{i}"), plan, clock=clock)
        for i in range(4)
    ]
    config = CyrusConfig(key="chaos-key", t=2, n=3, **SMALL_CHUNKS)
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    client = CyrusClient.create(
        providers, config, client_id="alice", engine=engine
    )
    stored: dict[str, bytes] = {}
    for cycle in range(CYCLES):
        # periodic health probe (the paper's Section 5.5 re-check) so a
        # CSP whose outage window ended rejoins the rotation
        client.probe_failed_csps()
        name = f"file-{cycle}.bin"
        data = deterministic_bytes(600 + 97 * cycle, seed=1000 + cycle)
        client.put(name, data)
        stored[name] = data
        got = client.get(name)
        assert got.data == data, f"cycle {cycle}: fresh read lost data"
        # and one older file per cycle, to cross fault windows
        old = f"file-{cycle // 2}.bin"
        assert client.get(old).data == stored[old], (
            f"cycle {cycle}: re-read of {old} lost data"
        )
    return [tuple(p.fault_log) for p in providers], providers, client


class TestChaos:
    def test_no_data_loss_across_cycles(self, fault_seed):
        logs, providers, _client = _run_scenario(seed=fault_seed)
        injected = {
            kind: sum(p.injected_faults.get(kind, 0) for p in providers)
            for kind in FaultKind
        }
        # the plan actually bit: every scripted fault family fired
        assert injected[FaultKind.TRANSIENT] > 0
        assert injected[FaultKind.CORRUPT] > 0
        assert injected[FaultKind.OUTAGE] > 0
        assert injected[FaultKind.LATENCY] > 0

    def test_identical_seeds_produce_identical_schedules(self):
        logs_a, _, _ = _run_scenario(seed=7)
        logs_b, _, _ = _run_scenario(seed=7)
        assert logs_a == logs_b  # full FaultEvent equality, times included
        logs_c, _, _ = _run_scenario(seed=8)
        assert logs_a != logs_c

    def test_breaker_stops_hammering_a_dead_csp(self):
        clock = SimClock()
        dead = FaultyProvider(
            InMemoryCSP("dead"),
            FaultPlan([FaultSpec(kind=FaultKind.OUTAGE)], seed=0),
            clock=clock,
        )
        health = HealthRegistry(clock=clock, failure_threshold=3,
                                reset_timeout=30.0)
        engine = DirectEngine({"dead": dead}, clock=clock, health=health)

        def get_op(i: int) -> TransferOp:
            return TransferOp(kind=OpKind.GET, csp_id="dead",
                              name=f"obj-{i}", size=10)

        for i in range(3):
            [res] = engine.execute([get_op(i)])
            assert not res.ok and res.retryable
        assert health.health_of("dead").state is BreakerState.OPEN
        dispatched = sum(dead.op_counts.values())
        assert dispatched == 3

        # while open: ops fail fast, the provider sees nothing
        for i in range(5):
            [res] = engine.execute([get_op(100 + i)])
            assert not res.ok
            assert res.error_type == "CircuitOpenError"
            assert res.retryable is False
        assert sum(dead.op_counts.values()) == dispatched

        # after the reset timeout: exactly one half-open probe per
        # batch is dispatched; its failure re-opens the circuit
        clock.advance(30.0)
        results = engine.execute([get_op(200 + i) for i in range(4)])
        assert sum(dead.op_counts.values()) == dispatched + 1
        assert [r.error_type for r in results].count("CircuitOpenError") == 3
        assert health.health_of("dead").state is BreakerState.OPEN

    def test_get_during_total_outage_raises_after_probe(self):
        # every provider goes dark after op 30: the pre-read sync fails
        # soft, the download fails, one re-probe recovers nothing, and
        # the download's error surfaces
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.OUTAGE, window_ops=(30, 10**9))],
            seed=3,
        )
        providers = [
            FaultyProvider(InMemoryCSP(f"csp{i}"), plan) for i in range(3)
        ]
        config = CyrusConfig(key="deg-key", t=2, n=3, **SMALL_CHUNKS)
        client = CyrusClient.create(providers, config, client_id="alice")
        data = deterministic_bytes(2000, seed=9)
        client.put("warm.bin", data)
        assert client.get("warm.bin").data == data
        for prov in providers:  # burn ops into the outage window
            while sum(prov.op_counts.values()) < 30:
                try:
                    prov.list()
                except CSPError:
                    pass
        probes = []
        probe = client.probe_failed_csps
        client.probe_failed_csps = lambda: probes.append(probe()) or probes[-1]
        with pytest.raises(InsufficientSharesError):
            client.get("warm.bin")
        assert probes == [[]]
        assert any(e.kind == "sync_degraded" for e in client.health_events)

    def test_breaker_events_surface_to_the_client(self, fault_seed):
        logs, providers, _client = _run_scenario(seed=fault_seed)
        # rebuild the same scenario to inspect the client's event stream
        clock = SimClock()
        plan = _chaos_plan(fault_seed)
        fleet = [
            FaultyProvider(InMemoryCSP(f"csp{i}"), plan, clock=clock)
            for i in range(4)
        ]
        config = CyrusConfig(key="chaos-key", t=2, n=3, **SMALL_CHUNKS)
        engine = DirectEngine({p.csp_id: p for p in fleet}, clock=clock)
        client = CyrusClient.create(
            fleet, config, client_id="alice", engine=engine
        )
        for cycle in range(CYCLES):
            client.probe_failed_csps()
            name = f"file-{cycle}.bin"
            data = deterministic_bytes(600 + 97 * cycle, seed=1000 + cycle)
            client.put(name, data)
            client.get(name)
        kinds = {e.kind for e in client.health_events}
        assert "failure" in kinds  # structured failure events recorded
        failures = [e for e in client.health_events if e.kind == "failure"]
        assert all(e.csp_id and e.detail for e in failures)


class TestChaosMetricsAgreement:
    """The observability counters must agree with the fault schedule.

    The fault logs are the ground truth: every TRANSIENT/OUTAGE event
    injected into an engine-dispatched op surfaces as exactly one
    failed op, and the health-event metrics mirror the client's
    structured event stream one-for-one.
    """

    def test_engine_failure_counters_match_fault_logs(self, fault_seed):
        logs, providers, client = _run_scenario(seed=fault_seed)
        snap = client.obs.snapshot()
        for prov, log in zip(providers, logs):
            # every provider call is an engine op (listings included),
            # so each error-kind injection is exactly one failed op
            injected = sum(
                1 for e in log
                if e.kind in (FaultKind.TRANSIENT, FaultKind.OUTAGE)
                and e.op in ("upload", "download", "list")
            )
            observed = snap.counter_total(
                "cyrus_op_failures_total",
                csp=prov.csp_id, error_type="CSPUnavailableError",
            )
            assert observed == injected, (
                f"{prov.csp_id}: engine saw {observed} unavailability "
                f"failures, the plan injected {injected}"
            )

    def test_retry_counters_are_bounded_by_injected_faults(self, fault_seed):
        logs, providers, client = _run_scenario(seed=fault_seed)
        snap = client.obs.snapshot()
        injected_errors = sum(
            1 for log in logs for e in log
            if (e.kind in (FaultKind.TRANSIENT, FaultKind.OUTAGE)
                and e.op in ("upload", "download"))
            # decode-time share verification turns a corrupt download
            # into a permanent per-provider failure, so it too may spend
            # one failover decision (it used to be absorbed only after
            # decode, invisible to the retry loop)
            or (e.kind is FaultKind.CORRUPT and e.op == "download")
        )
        retried = (snap.counter_total("cyrus_share_retries_total")
                   + snap.counter_total("cyrus_meta_retries_total"))
        failovers = snap.counter_total("cyrus_share_failovers_total")
        assert retried > 0  # transients were actually retried
        # a failed (or verified-corrupt) op leads to at most one retry
        # or failover decision
        assert retried + failovers <= injected_errors

    def test_health_event_metrics_mirror_event_stream(self, fault_seed):
        _logs, _providers, client = _run_scenario(seed=fault_seed)
        snap = client.obs.snapshot()
        by_kind: dict[str, int] = {}
        for event in client.health_events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert by_kind.get("failure", 0) > 0
        for kind, count in by_kind.items():
            assert snap.counter_total(
                "cyrus_health_events_total", kind=kind
            ) == count
        # and nothing was counted that never happened
        total_metric = snap.counter_total("cyrus_health_events_total")
        assert total_metric == sum(by_kind.values())

    def test_breaker_open_metric_matches_transitions(self, fault_seed):
        _logs, _providers, client = _run_scenario(seed=fault_seed)
        snap = client.obs.snapshot()
        opens = [e for e in client.health_events if e.kind == "breaker_open"]
        assert snap.counter_total(
            "cyrus_health_events_total", kind="breaker_open"
        ) == len(opens)
        for e in opens:
            assert snap.counter_value(
                "cyrus_health_events_total",
                kind="breaker_open", csp=e.csp_id,
            ) >= 1
