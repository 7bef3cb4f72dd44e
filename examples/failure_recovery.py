#!/usr/bin/env python3
"""Reliability: planning n from a failure budget, surviving outages,
and lazy share migration after a provider disappears.

Walks the paper's Section 4.2 and 5.5 machinery end to end on the
network simulator: an epsilon-driven share count, a mid-day provider
outage (the provider is dark until a probe finds it back), a permanent
removal, and the Figure 9 lazy re-homing of shares.

Run:  python examples/failure_recovery.py
"""

import random

from repro import CyrusConfig
from repro.bench import build_environment
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.netsim import Link
from repro.reliability import chunk_failure_probability


def main() -> None:
    # --- plan n from a failure budget (Eq. 1) -----------------------------
    config = CyrusConfig(
        key="resilient-key", t=2,
        n=None, epsilon=1e-7,           # "lose a chunk once in 10^7"
        csp_failure_prob=2e-3,          # worst observed CSP (~18 h/yr)
        chunk_min=32 * 1024, chunk_avg=128 * 1024, chunk_max=1024 * 1024,
    )
    n = config.plan_n(available_csps=6)
    print(f"failure budget 1e-7 with p=2e-3 per CSP -> n = {n} shares "
          f"(chunk-loss probability "
          f"{chunk_failure_probability(config.t, n, 2e-3):.2e})")

    # --- build a six-provider simulated cloud; one has a scheduled outage --
    links = {f"cloud-{i}": Link.symmetric(f"cloud-{i}", (10 + 2 * i) * 1e6,
                                          rtt_s=0.02) for i in range(6)}
    outage = FaultSpec(FaultKind.OUTAGE, csp_ids=("cloud-2",),
                       window_time=(100.0, 5000.0))
    env = build_environment(links, faults=FaultPlan([outage]))
    client = env.new_client(config, client_id="ops-laptop")

    payload = random.Random(0).randbytes(3_000_000)
    report = client.put("backups/db-snapshot.bin", payload)
    print(f"\nstored snapshot: {report.new_chunks} chunks x {n} shares in "
          f"{report.duration:.2f}s simulated")

    # --- outage: cloud-2 goes down; reads keep working ---------------------
    env.clock.advance_to(200.0)
    got = client.get("backups/db-snapshot.bin")
    assert got.data == payload
    print(f"during cloud-2's outage: download still OK "
          f"({got.duration:.2f}s, rerouted around the outage)")
    # a transfer that gives up on cloud-2 trips its breaker: it is dark,
    # and takes no shares until a probe finds it back (the breaker's own
    # half-open probe op after its reset timeout, or this explicit check)
    client.health.trip("cloud-2", "outage seen")
    print(f"cloud-2 dark: {client.health.dark('cloud-2')}; probe during "
          f"the outage finds back up: {client.probe_failed_csps()}")
    env.clock.advance_to(6000.0)
    print(f"after the outage the probe finds back up: "
          f"{client.probe_failed_csps()}")

    # --- permanent removal + lazy migration (Figure 9) ---------------------
    client.remove_csp("cloud-5")
    print("\ncloud-5 removed from the federation")
    got = client.get("backups/db-snapshot.bin")
    assert got.data == payload
    print(f"next download migrated {len(got.migrations)} stranded shares "
          f"to active providers:")
    for migration in got.migrations[:5]:
        print(f"  chunk {migration.chunk_id[:8]} share #{migration.index}: "
              f"{migration.old_csp} -> {migration.new_csp}")

    # reliability is restored: every chunk has n live shares again
    for record in got.node.chunks:
        location = client.chunk_table.get(record.chunk_id)
        live = [c for c in location.csps() if client.health.up(c, client.cloud)]
        assert len(live) >= record.n
    print("every chunk is back to full redundancy on live providers")

    # --- the estimator that feeds p (Section 4.2) --------------------------
    from repro.reliability import FailureEstimator

    estimator = FailureEstimator(outage_threshold_s=24 * 3600)
    for day in range(300):
        estimator.record_success(day * 86400.0)
    estimator.record_failure(300 * 86400.0)
    estimator.record_failure(302 * 86400.0)  # > 1 day: one CSP failure
    print(f"\nobserved failure probability estimate: "
          f"{estimator.probability:.4f} "
          f"({estimator.failure_events} qualifying outage)")

    # --- seeded chaos: fault injection + the resilient layer ---------------
    chaos_demo()


def chaos_demo() -> None:
    """Drive the client through a scripted fault schedule.

    A :class:`FaultPlan` injects transient errors everywhere, an
    op-windowed outage and bit-flip share corruption on one provider,
    and latency spikes — all derived from one seed, so reruns replay
    the exact same schedule.  The retry loop, circuit breakers and the
    Section 5.1 repair path ride it out with zero data loss.
    """
    from repro.core.client import CyrusClient
    from repro.core.transfer import DirectEngine
    from repro.csp.memory import InMemoryCSP
    from repro.faults import FaultyProvider
    from repro.util.clock import SimClock

    clock = SimClock()
    plan = FaultPlan.chaos(
        seed=2026,
        transient_rate=0.08,            # blips on every provider
        corrupt_csp_ids=("chaos-1",),   # one provider flips share bits
        corrupt_rate=0.5,
        outage_csp_id="chaos-1",        # ... and goes dark for a while
        outage_window_ops=(40, 90),
        latency_rate=0.05, latency_s=0.1,
    )
    providers = [
        FaultyProvider(InMemoryCSP(f"chaos-{i}"), plan, clock=clock)
        for i in range(4)
    ]
    config = CyrusConfig(key="chaos-key", t=2, n=3,
                         chunk_min=128, chunk_avg=512, chunk_max=4096)
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    client = CyrusClient.create(providers, config, client_id="ops-laptop",
                                engine=engine)

    rng = random.Random(7)
    print("\nchaos run: 12 put/get cycles under a seeded fault plan")
    for cycle in range(12):
        client.probe_failed_csps()      # Section 5.5 periodic re-check
        data = rng.randbytes(600 + 97 * cycle)
        client.put(f"file-{cycle}.bin", data)
        assert client.get(f"file-{cycle}.bin").data == data

    injected = {}
    for p in providers:
        for kind, count in p.injected_faults.items():
            injected[kind] = injected.get(kind, 0) + count
    print("faults injected: " + ", ".join(
        f"{kind.name.lower()} x{injected[kind]}"
        for kind in FaultKind if injected.get(kind)))
    failures = sum(1 for e in client.health_events if e.kind == "failure")
    opens = sum(1 for e in client.health_events if e.kind == "breaker_open")
    print(f"health events: {failures} failures recorded, "
          f"{opens} circuit-breaker trips")
    for csp_id, health in sorted(client.health.snapshot().items()):
        print(f"  {csp_id}: state={health.state.name.lower()} "
              f"ok={health.successes} fail={health.failures}")
    print("all 12 files read back byte-identical despite the chaos")


if __name__ == "__main__":
    main()
