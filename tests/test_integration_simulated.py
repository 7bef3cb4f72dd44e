"""Integration tests on the simulated network: timing and failures."""

from repro.bench import build_environment, build_paper_testbed
from repro.core.config import CyrusConfig
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.netsim import Link
from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CFG = CyrusConfig(key="sim-key", t=2, n=3, chunk_min=32 * 1024,
                  chunk_avg=128 * 1024, chunk_max=1024 * 1024)


class TestTimedTransfers:
    def test_upload_time_scales_with_size(self):
        env = build_paper_testbed()
        client = env.new_client(CFG)
        small = client.put("small.bin", deterministic_bytes(500_000, 1))
        large = client.put("large.bin", deterministic_bytes(5_000_000, 2))
        assert large.duration > small.duration

    def test_download_faster_than_naive_single_slow_csp(self):
        env = build_paper_testbed()
        client = env.new_client(CFG)
        data = deterministic_bytes(4_000_000, 3)
        client.put("f.bin", data)
        report = client.get("f.bin")
        # a single slow cloud would take 4 MB / 2 MB/s = 2.0 s; CYRUS
        # parallel downloads from chosen CSPs must beat that
        assert report.duration < 2.0
        assert report.data == data

    def test_higher_t_means_less_data_per_csp(self):
        # (3, 4) halves nothing but cuts share size: paper Figure 14's
        # explanation for why t=3 downloads beat t=2
        env23 = build_paper_testbed()
        c23 = env23.new_client(CFG.with_params(t=2, n=3))
        env34 = build_paper_testbed()
        c34 = env34.new_client(CFG.with_params(t=3, n=4))
        data = deterministic_bytes(3_000_000, 4)
        r23 = c23.put("f.bin", data)
        r34 = c34.put("f.bin", data)
        # same file: t=3 shares are smaller, so total bytes uploaded for
        # (3,4) [4/3 x] are fewer than (2,3) [3/2 x]
        assert r34.bytes_uploaded < r23.bytes_uploaded

    def test_clock_monotone_across_operations(self):
        env = build_paper_testbed()
        client = env.new_client(CFG)
        t0 = env.clock.now()
        client.put("a.bin", deterministic_bytes(1_000_000, 5))
        t1 = env.clock.now()
        client.get("a.bin")
        t2 = env.clock.now()
        assert t0 < t1 < t2


class TestOutageInjection:
    def make_env(self, outage_csp="fast0", window=(0.0, 1e9)):
        links = {}
        for i in range(4):
            links[f"fast{i}"] = Link.symmetric(f"fast{i}", 15e6)
        for i in range(3):
            links[f"slow{i}"] = Link.symmetric(f"slow{i}", 2e6)
        outage = FaultSpec(FaultKind.OUTAGE, csp_ids=(outage_csp,),
                           window_time=window)
        return build_environment(links, faults=FaultPlan([outage]))

    def test_upload_routes_around_down_csp(self):
        env = self.make_env()
        client = env.new_client(CFG)
        data = deterministic_bytes(2_000_000, 6)
        report = client.put("f.bin", data)
        assert "fast0" not in {s.csp_id for s in report.node.shares}
        assert client.get("f.bin").data == data

    def test_download_during_partial_outage(self):
        env = self.make_env(outage_csp="fast1", window=(5.0, 1e9))
        client = env.new_client(CFG)
        data = deterministic_bytes(2_000_000, 7)
        client.put("f.bin", data)  # fast1 up during upload
        env.clock.advance_to(10.0)  # fast1 now down
        assert client.get("f.bin").data == data

    def test_csp_recovery_resumes_uploads(self):
        env = self.make_env(outage_csp="fast0", window=(0.0, 50.0))
        client = env.new_client(CFG)
        client.put("a.bin", deterministic_bytes(500_000, 8))
        assert client.health.dark("fast0")
        env.clock.advance_to(60.0)
        assert client.probe_failed_csps() == ["fast0"]
        placed = set()
        for i in range(8):
            node = client.put(
                f"b{i}.bin", deterministic_bytes(400_000, 9 + i)
            ).node
            placed |= {s.csp_id for s in node.shares}
        assert "fast0" in placed


class TestQuotaPressure:
    def test_quota_exhaustion_fails_over(self):
        links = {f"c{i}": Link.symmetric(f"c{i}", 10e6) for i in range(5)}
        # c0's account fills up a few puts in
        full = FaultSpec(FaultKind.QUOTA, csp_ids=("c0",),
                         window_ops=(20, None))
        env = build_environment(links, faults=FaultPlan([full]))
        client = env.new_client(CFG.with_params(**SMALL_CHUNKS))
        # keep uploading; once c0 fills, shares must land elsewhere and
        # every file must stay readable
        for i in range(12):
            client.put(f"f{i}.bin", deterministic_bytes(30_000, 30 + i))
        for i in range(12):
            assert client.get(f"f{i}.bin").data == (
                deterministic_bytes(30_000, 30 + i)
            )
        assert env.csps["c0"].injected_faults[FaultKind.QUOTA] > 0
        assert client.cloud.is_write_full("c0")

    def test_consistent_hashing_balances_storage(self):
        links = {f"c{i}": Link.symmetric(f"c{i}", 10e6) for i in range(4)}
        env = build_environment(links)
        client = env.new_client(CFG.with_params(**SMALL_CHUNKS))
        for i in range(30):
            client.put(f"f{i}.bin", deterministic_bytes(20_000, 50 + i))
        stored = [csp.stored_bytes for csp in env.csps.values()]
        assert min(stored) > 0.3 * max(stored)
