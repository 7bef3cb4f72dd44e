"""Tier-1 fleet smoke: 32 tenants over in-memory CSPs.

Pins the three fleet-harness contracts the CI job relies on:

* **convergence** — every tenant's final namespace equals its plan's
  expected head versions;
* **isolation** — every raw object at every shared provider belongs to
  exactly one tenant's ``t/<tenant>/`` prefix;
* **determinism** — two runs with the same (spec, topology, seed)
  produce byte-identical ``FLEET_report.json`` files and identical
  per-tenant namespace digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.csp.namespaced import namespace_prefix
from repro.fleet import (
    FleetHarness,
    FleetTopology,
    fleet_gate,
    load_fleet_report,
    run_fleet,
    validate_fleet_report,
    write_fleet_report,
)
from repro.workloads.fleet import FleetWorkloadSpec

SMOKE_SPEC = FleetWorkloadSpec(tenants=32, files_per_tenant=4,
                               ops_per_tenant=8)
SMOKE_TOPOLOGY = FleetTopology(engine="memory")
SMOKE_SEED = 7


def test_smoke_32_tenants_converge_and_gate(tmp_path):
    harness = FleetHarness(SMOKE_SPEC, SMOKE_TOPOLOGY, seed=SMOKE_SEED)
    result = harness.run()

    assert len(result.tenants) == 32
    for tid, tenant in result.tenants.items():
        assert tenant.converged, f"{tid} did not converge: {tenant.errors}"
        assert tenant.files == len(
            result.workload.plan_for(tid).expected_files()
        )
    fleet = result.report["fleet"]
    assert fleet["converged_tenants"] == 32
    assert fleet["namespace_collisions"] == 0
    assert fleet_gate(result.report) == []

    # namespace isolation, checked against the raw shared providers:
    # every object is attributable to exactly one tenant prefix
    prefixes = [namespace_prefix(tid) for tid in result.tenants]
    for raw in harness.raw_csps.values():
        for info in raw.list():
            owners = [p for p in prefixes if info.name.startswith(p)]
            assert len(owners) == 1, (raw.csp_id, info.name)

    # the report round-trips through the schema-checked writer
    out = tmp_path / "FLEET_report.json"
    write_fleet_report(result.report, out)
    assert load_fleet_report(out) == json.loads(
        json.dumps(result.report)  # writer normalises tuples -> lists
    )


def test_same_seed_runs_are_bit_identical(tmp_path):
    r1 = run_fleet(SMOKE_SPEC, SMOKE_TOPOLOGY, seed=SMOKE_SEED)
    r2 = run_fleet(SMOKE_SPEC, SMOKE_TOPOLOGY, seed=SMOKE_SEED)

    # identical workloads ...
    assert r1.workload.fingerprint() == r2.workload.fingerprint()
    # ... identical final per-tenant namespace contents ...
    for tid in r1.tenants:
        assert (r1.tenants[tid].namespace_digest
                == r2.tenants[tid].namespace_digest), tid
    # ... and byte-identical report files
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_fleet_report(r1.report, p1)
    write_fleet_report(r2.report, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seed_changes_the_workload():
    spec = FleetWorkloadSpec(tenants=4, files_per_tenant=3, ops_per_tenant=6)
    r7 = run_fleet(spec, SMOKE_TOPOLOGY, seed=7)
    r8 = run_fleet(spec, SMOKE_TOPOLOGY, seed=8)
    assert r7.workload.fingerprint() != r8.workload.fingerprint()


def test_report_schema_is_validated():
    result = run_fleet(
        FleetWorkloadSpec(tenants=2, files_per_tenant=2, ops_per_tenant=4),
        SMOKE_TOPOLOGY, seed=1,
    )
    validate_fleet_report(result.report)
    assert result.report["schema"] == "cyrus-fleet/v1"
    assert result.report["params"]["tenants"] == 2
    sync = result.report["fleet"]["sync_latency"]
    assert sync["count"] >= 2  # at least one put per tenant


@pytest.mark.slow
def test_fleet_256_tenants_over_netsim_links():
    """The CI-scale run: 256 tenants on shared flow-simulated links."""
    spec = FleetWorkloadSpec(tenants=256, files_per_tenant=4,
                             ops_per_tenant=6)
    result = run_fleet(spec, FleetTopology(), seed=7)
    assert fleet_gate(result.report) == []
    sync = result.report["fleet"]["sync_latency"]
    assert sync["count"] >= 256 and sync["p99"] > 0


def test_cli_fleet_writes_report_and_gates(tmp_path):
    from repro.cli import main

    out = tmp_path / "FLEET_report.json"
    code = main([
        "fleet", "--tenants", "4", "--seed", "7", "--engine", "memory",
        "--files-per-tenant", "3", "--ops-per-tenant", "6",
        "--out", str(out), "--gate",
    ])
    assert code == 0
    report = load_fleet_report(out)
    assert report["fleet"]["converged_tenants"] == 4


def test_cli_fleet_report_matches_the_cross_commit_golden_digest(
    tmp_path, capsys,
):
    """``cyrus fleet --tenants 8 --seed 7`` is pinned across commits.

    The digest was generated on the commit *before* the provider
    substrate and the version tree were indexed: namespace digests,
    simulated latencies and load skew must not notice such a swap.
    Host timing goes to stderr only, never into the report.
    """
    from repro.cli import main

    out = tmp_path / "FLEET_report.json"
    assert main(["fleet", "--tenants", "8", "--seed", "7",
                 "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "golden_fleet_digest.txt"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        golden.read_text().strip()
    )
    captured = capsys.readouterr()
    assert "wall_ms_per_op=" in captured.err and "ops/s=" in captured.err
    assert "wall_ms_per_op" not in captured.out
