"""Tests for quota-aware placement: a full CSP stays readable."""

import pytest

from repro.core.cloud import CSPStatus, CyrusCloud
from repro.csp import InMemoryCSP
from repro.errors import SelectionError
from tests.conftest import deterministic_bytes


class TestWriteFullState:
    def test_full_csp_excluded_from_placement(self):
        cloud = CyrusCloud([InMemoryCSP(f"c{i}") for i in range(4)])
        cloud.mark_write_full("c0")
        for key in (f"k{i}" for i in range(20)):
            assert "c0" not in cloud.place_chunk(key, 3)

    def test_full_csp_still_active(self):
        cloud = CyrusCloud([InMemoryCSP(f"c{i}") for i in range(3)])
        cloud.mark_write_full("c1")
        assert cloud.status_of("c1") is CSPStatus.ACTIVE
        assert "c1" in cloud.active_csps()
        assert cloud.writable_csps() == ["c0", "c2"]
        assert cloud.is_write_full("c1")

    def test_write_available_restores(self):
        cloud = CyrusCloud([InMemoryCSP(f"c{i}") for i in range(3)])
        cloud.mark_write_full("c1")
        cloud.mark_write_available("c1")
        assert cloud.writable_csps() == ["c0", "c1", "c2"]

    def test_placement_fails_when_too_few_writable(self):
        cloud = CyrusCloud([InMemoryCSP(f"c{i}") for i in range(3)])
        cloud.mark_write_full("c0")
        with pytest.raises(SelectionError):
            cloud.place_chunk("k", 3)

    def test_unknown_csp_rejected(self):
        cloud = CyrusCloud([InMemoryCSP("c0")])
        with pytest.raises(KeyError):
            cloud.mark_write_full("ghost")


class TestQuotaEndToEnd:
    def make_client(self, config, full_after_ops=8):
        """Four CSPs; c0's account fills up at its ``full_after_ops``-th
        operation (a couple of puts in)."""
        from repro.bench import build_environment
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.netsim import Link

        links = {f"c{i}": Link.symmetric(f"c{i}", 1e9) for i in range(4)}
        full = FaultSpec(FaultKind.QUOTA, csp_ids=("c0",),
                         window_ops=(full_after_ops, None))
        env = build_environment(links, faults=FaultPlan([full]))
        return env.new_client(config, client_id="q"), env.csps

    def test_full_csp_marked_write_full_not_failed(self, config):
        client, csps = self.make_client(config)
        # keep uploading until c0's small quota trips
        for i in range(10):
            client.put(f"f{i}.bin", deterministic_bytes(2_000, i))
        assert client.cloud.is_write_full("c0")
        assert client.cloud.status_of("c0") is CSPStatus.ACTIVE

    def test_old_files_still_readable_from_full_csp(self, config):
        client, csps = self.make_client(config)
        early = deterministic_bytes(2_000, 0)
        stored = client.put("early.bin", early).node
        assert "c0" in {s.csp_id for s in stored.shares}
        for i in range(10):
            client.put(f"fill{i}.bin", deterministic_bytes(2_000, 10 + i))
        # c0 is full; shares stored there earlier must stay usable
        assert client.cloud.is_write_full("c0")
        assert client.get("early.bin").data == early

    def test_writes_continue_on_remaining_csps(self, config):
        client, csps = self.make_client(config)
        for i in range(12):
            client.put(f"f{i}.bin", deterministic_bytes(2_000, 30 + i))
        # everything readable despite one CSP having filled up
        for i in range(12):
            assert client.get(f"f{i}.bin").data == (
                deterministic_bytes(2_000, 30 + i)
            )
        late = client.put("late.bin", deterministic_bytes(2_000, 99))
        assert "c0" not in {s.csp_id for s in late.node.shares}
