"""Unit tests for the bench package (testbed, harness, reporting,
realworld profile)."""

import pytest

from repro.bench import (
    build_environment,
    build_paper_testbed,
    summarize_durations,
)
from repro.bench.harness import DurationSummary, throughputs
from repro.bench.realworld import REALWORLD_DOWN_RATES, realworld_links
from repro.bench.reporting import fmt_mb, fmt_mbps, fmt_seconds, render_table
from repro.core.config import CyrusConfig
from repro.csp import InMemoryCSP
from repro.errors import CSPQuotaExceededError, CSPUnavailableError
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.netsim import Link
from tests.conftest import SMALL_CHUNKS, deterministic_bytes


class TestTestbed:
    def test_paper_testbed_shape(self):
        env = build_paper_testbed()
        assert len(env.csps) == 7
        fast = [c for c in env.csp_ids() if c.startswith("fast")]
        slow = [c for c in env.csp_ids() if c.startswith("slow")]
        assert len(fast) == 4 and len(slow) == 3
        assert env.links["fast0"].capacity_at(0, "down") == 15e6
        assert env.links["slow0"].capacity_at(0, "down") == 2e6

    def test_environment_shares_one_clock(self):
        env = build_paper_testbed()
        assert env.engine.clock is env.clock
        plan = FaultPlan([FaultSpec(FaultKind.LATENCY, delay_s=1.0)])
        env = build_environment({"a": Link.symmetric("a", 1e6)},
                                faults=plan)
        assert env.csps["a"].clock is env.engine.clock is env.clock

    def test_new_client_functional(self):
        env = build_paper_testbed()
        client = env.new_client(
            CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        )
        data = deterministic_bytes(5000, 1)
        client.put("f.bin", data)
        assert client.get("f.bin").data == data

    def test_quotas_and_availability_wired(self):
        links = {"a": Link.symmetric("a", 1e6), "b": Link.symmetric("b", 1e6)}
        plan = FaultPlan([
            FaultSpec(FaultKind.QUOTA, csp_ids=("a",), window_ops=(1, None)),
            FaultSpec(FaultKind.OUTAGE, csp_ids=("b",),
                      window_time=(1.0, 2.0)),
        ])
        env = build_environment(links, faults=plan)
        a, b = env.csps["a"], env.csps["b"]
        a.upload("x", b"1")
        with pytest.raises(CSPQuotaExceededError):
            a.upload("y", b"2")
        env.clock.advance_to(1.5)
        with pytest.raises(CSPUnavailableError):
            b.list()
        assert a.inner.stored_bytes == 1

    def test_no_plan_leaves_the_stores_bare(self):
        env = build_paper_testbed()
        assert all(type(csp) is InMemoryCSP for csp in env.csps.values())


class TestHarness:
    def test_duration_summary(self):
        summary = DurationSummary.of([3.0, 1.0, 2.0, 10.0])
        assert summary.count == 4
        assert summary.minimum == 1.0 and summary.maximum == 10.0
        assert summary.mean == pytest.approx(4.0)
        assert summary.median == pytest.approx(2.5)
        assert summary.total == pytest.approx(16.0)

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            DurationSummary.of([])

    def test_summarize_reports(self):
        env = build_paper_testbed()
        client = env.new_client(
            CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        )
        reports = [
            client.put(f"f{i}.bin", deterministic_bytes(2000, i))
            for i in range(3)
        ]
        summary = summarize_durations(reports)
        assert summary.count == 3
        assert summary.total > 0

    def test_throughputs(self):
        class FakeReport:
            def __init__(self, duration):
                self.duration = duration

        tps = throughputs([FakeReport(2.0), FakeReport(0.0)], [100, 50])
        assert tps == [50.0]


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["name", "v"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert all(len(line) == len(lines[0]) for line in lines[1:2])
        assert "long-name" in lines[3]

    def test_fmt_seconds_ranges(self):
        assert fmt_seconds(0.00123) == "1.23ms"
        assert fmt_seconds(1.5) == "1.500s"
        assert fmt_seconds(99.4) == "99.4s"

    def test_fmt_helpers(self):
        assert fmt_mb(2 * 1024 * 1024) == "2.00 MB"
        assert fmt_mbps(1e6) == "8.000 Mbps"


class TestRealworldProfile:
    def test_asymmetric_links(self):
        links = realworld_links()
        assert set(links) == set(REALWORLD_DOWN_RATES)
        for name, link in links.items():
            assert link.capacity_at(0, "down") == REALWORLD_DOWN_RATES[name]
            assert link.capacity_at(0, "up") != link.capacity_at(0, "down")

    def test_download_skew(self):
        rates = sorted(REALWORLD_DOWN_RATES.values())
        assert rates[-1] >= 5 * rates[0]

    def test_api_overhead_in_rtt(self):
        plain = realworld_links(api_overhead_s=0.0)
        padded = realworld_links(api_overhead_s=0.5)
        for name in plain:
            assert padded[name].rtt_s == pytest.approx(
                plain[name].rtt_s + 0.5
            )

    def test_diurnal_variation(self):
        links = realworld_links(diurnal_amplitude=0.4)
        link = links["Dropbox"]
        samples = {link.capacity_at(h * 3600.0, "up") for h in range(24)}
        assert len(samples) > 4  # the trace actually varies

    def test_diurnal_order_preserved(self):
        # all CSPs swing in phase: relative speed order never flips
        links = realworld_links(diurnal_amplitude=0.35)
        names = sorted(REALWORLD_DOWN_RATES,
                       key=REALWORLD_DOWN_RATES.get)
        for hour in range(48):
            t = hour * 3600.0
            rates = [links[n].capacity_at(t, "down") for n in names]
            assert rates == sorted(rates)
