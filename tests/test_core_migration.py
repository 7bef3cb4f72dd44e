"""Unit tests for share and metadata migration (Section 5.5, Figure 9)."""

import pytest

from repro.csp import InMemoryCSP
from repro.redundancy.reconcile import (
    Budget,
    assess_chunk,
    backfill_metadata,
    reconcile_chunk,
)
from tests.conftest import deterministic_bytes


def _plan(client, record, data):
    """(index, old_csp, new_csp) of a lazy migration of one chunk, with
    its plaintext in hand."""
    state = assess_chunk(client, record.chunk_id)
    plaintext = data[record.offset:record.offset + record.size]
    return [(m.index, m.old_csp, m.new_csp) for m in reconcile_chunk(
        state, None, Budget(None), plaintext=plaintext).moved]


class TestPlanning:
    def setup_state(self, client, csps):
        data = deterministic_bytes(6000, 1)
        node = client.put("f.bin", data).node
        return data, node

    def test_no_moves_when_healthy(self, client, csps):
        data, node = self.setup_state(client, csps)
        for record in node.chunks:
            assert assess_chunk(client, record.chunk_id).regenerate == []
            assert _plan(client, record, data) == []

    def test_moves_planned_after_failure(self, client, csps):
        data, node = self.setup_state(client, csps)
        victim = node.shares[0].csp_id
        client.health.trip(victim)
        moved_any = False
        for record in node.chunks:
            location = client.chunk_table.get(record.chunk_id)
            for index, old, new in _plan(client, record, data):
                moved_any = True
                assert client.health.up(new, client.cloud)
                assert new not in location.csps()
        assert moved_any

    def test_no_replacement_available(self, client, csps):
        # all CSPs hold shares or are down: nothing can be planned
        data, node = self.setup_state(client, csps)
        record = node.chunks[0]
        location = client.chunk_table.get(record.chunk_id)
        for csp in client.cloud.active_csps():
            if csp not in location.csps():
                client.health.trip(csp)
        victim = location.csps()[0]
        client.health.trip(victim)
        moves = _plan(client, record, data)
        assert moves == []


class TestLazyMigration:
    def test_download_restores_shares(self, client, csps):
        data = deterministic_bytes(8000, 2)
        client.put("f.bin", data)
        client.remove_csp("csp1")
        report = client.get("f.bin")
        assert report.data == data
        assert report.migrations
        for migration in report.migrations:
            assert migration.new_csp != "csp1"
        # table now shows n live placements per chunk
        for record in report.node.chunks:
            loc = client.chunk_table.get(record.chunk_id)
            live = {c for c in loc.csps() if client.health.up(c, client.cloud)}
            assert len(live) >= record.n

    def test_migration_happens_once(self, client):
        data = deterministic_bytes(8000, 3)
        client.put("f.bin", data)
        client.remove_csp("csp2")
        assert client.get("f.bin").migrations
        assert not client.get("f.bin").migrations

    def test_migrated_share_decodes_for_other_clients(
        self, client, second_client
    ):
        data = deterministic_bytes(8000, 4)
        client.put("f.bin", data)
        client.remove_csp("csp0")
        client.get("f.bin")  # migrates
        second_client.remove_csp("csp0")
        assert second_client.get("f.bin").data == data


class TestMetadataMigration:
    def test_new_slot_backfilled(self, client, csps):
        client.put("f.bin", deterministic_bytes(2000, 6))
        client.put("g.bin", deterministic_bytes(2000, 7))
        new_csp = InMemoryCSP("csp-new")
        client.add_csp(new_csp)  # add_csp migrates metadata eagerly
        # the new slot holds a metadata share of every node
        assert new_csp.object_count == len(client.tree.node_ids())

    def test_migrate_metadata_idempotent(self, client, csps):
        client.put("f.bin", deterministic_bytes(1000, 8))
        wrote = backfill_metadata(client)
        assert wrote == 0  # everything already in place

    def test_restores_wiped_slot(self, client, csps):
        client.put("f.bin", deterministic_bytes(1000, 9))
        victim = csps[0]
        for info in list(victim.list(prefix="md-")):
            victim.delete(info.name)
        wrote = backfill_metadata(client)
        assert wrote == len(client.tree.node_ids())


class TestFailureProbing:
    def test_probe_recovers_responsive_csp(self, client, csps):
        client.health.trip("csp1")
        recovered = client.probe_failed_csps()
        assert recovered == ["csp1"]
        assert not client.health.dark("csp1")
        assert client.health.up("csp1", client.cloud)

    def test_probe_skips_still_down_csp(self, config):
        from repro.bench import build_environment
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.netsim import Link

        links = {f"c{i}": Link.symmetric(f"c{i}", 1e6) for i in range(4)}
        outage = FaultSpec(FaultKind.OUTAGE, csp_ids=("c0",),
                           window_time=(0.0, 100.0))
        env = build_environment(links, faults=FaultPlan([outage]))
        client = env.new_client(config)
        client.health.trip("c0")
        assert client.probe_failed_csps() == []  # still in its outage
        env.clock.advance_to(200.0)
        assert client.probe_failed_csps() == ["c0"]

    def test_probe_never_resurrects_removed(self, client):
        client.remove_csp("csp2")
        client.health.trip("csp2")
        assert client.probe_failed_csps() == []
        assert client.cloud.status_of("csp2").value == "removed"

    def test_recovered_csp_receives_uploads_again(self, client):
        client.health.trip("csp0")
        client.probe_failed_csps()
        placed = set()
        for i in range(10):
            node = client.put(
                f"r{i}.bin", deterministic_bytes(2000, 60 + i)
            ).node
            placed |= {s.csp_id for s in node.shares}
        assert "csp0" in placed


    def test_probe_never_ends_a_corruption_quarantine(self, client):
        """A quarantined CSP answers listings, but its strikes make it a
        suspect, not dark: the probe skips it and its breaker stays
        open."""
        from repro.csp.resilient import BreakerState

        for _ in range(client.health.corruption_threshold):
            client.health.record_corruption("csp1", "bad share")
        assert not client.health.dark("csp1")
        assert client.probe_failed_csps() == []
        assert client.health.breaker("csp1").state is BreakerState.OPEN

    def test_tripped_breaker_half_opens_for_one_probe_op(self, config):
        """Section 5.5's "periodically checks": a CSP a give-up tripped
        is dark until its breaker half-opens after ``reset_timeout``;
        then the next read admits one probe op there, which closes the
        breaker, with no explicit probe call."""
        from repro.core.client import CyrusClient
        from repro.core.transfer import DirectEngine
        from repro.util.clock import SimClock

        csps = [InMemoryCSP(f"csp{i}") for i in range(3)]
        clock = SimClock()
        engine = DirectEngine({p.csp_id: p for p in csps}, clock=clock)
        client = CyrusClient.create(csps, config, client_id="a",
                                    engine=engine)
        data = deterministic_bytes(3000, 70)
        client.put("f.bin", data)
        client.remove_csp("csp1")  # csp0 and csp2 hold the only shares
        client.health.trip("csp0")
        assert client.health.dark("csp0")
        assert not client.health.up("csp0", client.cloud)
        clock.advance(client.health.reset_timeout)
        assert client.health.up("csp0", client.cloud)  # half-open
        client.probe_failed_csps = lambda: pytest.fail("explicit probe")
        assert client.get("f.bin").data == data
        assert not client.health.dark("csp0")


class TestCSPAddition:
    def test_new_csp_receives_new_uploads(self, client):
        client.add_csp(InMemoryCSP("fresh"))
        placed = set()
        for i in range(12):
            node = client.put(
                f"file{i}.bin", deterministic_bytes(2000, 20 + i)
            ).node
            placed |= {s.csp_id for s in node.shares}
        assert "fresh" in placed

    def test_existing_shares_untouched_on_add(self, client, csps):
        data = deterministic_bytes(4000, 30)
        node = client.put("f.bin", data).node
        before = {s.csp_id for s in node.shares}
        client.add_csp(InMemoryCSP("fresh"))
        after = {
            s.csp_id
            for s in client.tree.get(node.node_id).shares
        }
        assert after == before
