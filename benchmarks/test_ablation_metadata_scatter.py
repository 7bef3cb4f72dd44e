"""Ablation — scattered metadata vs a central metadata server.

Section 3.1: "The easiest way to share this metadata is to maintain a
central metadata server, but this solution makes CYRUS dependent on a
single server, introducing a single point of failure ... Our solution
is to scatter the metadata across all of the CSPs."  This ablation
quantifies that argument two ways:

* analytically + Monte Carlo: the probability that metadata is
  unreadable, for a central server vs (t, m) scattering, at realistic
  per-provider failure rates;
* operationally: with any one provider down, scattered metadata keeps
  every CYRUS operation working, end to end.
"""

import random

from repro.bench.reporting import render_table
from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp import InMemoryCSP
from repro.reliability import chunk_failure_probability

from benchmarks.conftest import print_table

P_FAIL = 2e-3  # worst Table-observed provider (~18 h/yr downtime)
TRIALS = 400_000


def analytic_unavailability(t: int, m: int, p: float) -> float:
    """P(fewer than t metadata shares reachable)."""
    return chunk_failure_probability(t, m, p)


def monte_carlo_unavailability(t: int, m: int, p: float, seed=31) -> float:
    rng = random.Random(seed)
    bad = 0
    for _ in range(TRIALS):
        up = sum(1 for _ in range(m) if rng.random() >= p)
        if up < t:
            bad += 1
    return bad / TRIALS


def test_ablation_metadata_scattering(benchmark):
    def run():
        rows = []
        results = {}
        for label, t, m in [
            ("central server", 1, 1),
            ("replicated server pair", 1, 2),
            ("CYRUS scatter (2, 4)", 2, 4),
            ("CYRUS scatter (2, 8)", 2, 8),
        ]:
            analytic = analytic_unavailability(t, m, P_FAIL)
            measured = monte_carlo_unavailability(t, m, P_FAIL)
            results[label] = (analytic, measured)
            rows.append([label, f"{analytic:.2e}", f"{measured:.2e}"])
        return rows, results

    rows, results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Ablation: metadata unavailability (p = {P_FAIL} per provider)",
        render_table(["scheme", "analytic", f"measured ({TRIALS:,} trials)"],
                     rows),
    )
    central = results["central server"][0]
    scattered = results["CYRUS scatter (2, 4)"][0]
    # scattering buys orders of magnitude: with p=2e-3, a central server
    # fails at 2e-3 while (2,4) fails around C(4,3) p^3 ~ 3e-8
    assert scattered < central / 1000
    # more slots only help (metadata goes to ALL CSPs, footnote 3)
    assert results["CYRUS scatter (2, 8)"][0] < scattered
    # Monte Carlo agrees with the closed form where it has resolution
    # (central server: ~800 expected failure events over the trials)
    measured_central = results["central server"][1]
    assert abs(measured_central - central) < 0.3 * central


def test_ablation_operational_with_one_provider_down(benchmark):
    """Every Table 3 operation survives any single provider outage."""

    def run():
        outcomes = []
        for victim in range(4):
            csps = [InMemoryCSP(f"p{i}") for i in range(4)]
            config = CyrusConfig(key="k", t=2, n=3, chunk_min=256,
                                 chunk_avg=1024, chunk_max=8192)
            client = CyrusClient.create(csps, config, client_id="ops")
            client.put("pre-outage.bin", b"written before " * 100)
            client.health.trip(f"p{victim}")
            # all core operations with one provider dark:
            client.put("during.bin", b"written during " * 120)
            ok_read = client.get("pre-outage.bin").data == (
                b"written before " * 100
            )
            listing = {e.name for e in client.list_files()}
            client.delete("during.bin")
            fresh = CyrusClient.create(csps, config, client_id="fresh")
            fresh.health.trip(f"p{victim}")
            fresh.recover()
            ok_recover = fresh.get("pre-outage.bin",
                                   sync_first=False).data == (
                b"written before " * 100
            )
            outcomes.append(
                ok_read and ok_recover
                and listing == {"pre-outage.bin", "during.bin"}
            )
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(outcomes), outcomes
    print("\nall Table 3 operations verified with each of the four "
          "providers down in turn")
