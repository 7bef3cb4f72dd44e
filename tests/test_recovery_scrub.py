"""The anti-entropy scrub: detect, repair, budget, and report.

Damage is injected through the in-memory providers' own primitives —
deleted shares, shares re-uploaded with a flipped bit, unrecorded
shares — and the scrub must find and fix exactly that damage, within
its transfer budget, journaling every repair as a ``migrate`` intent.
"""

from __future__ import annotations

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.daemon import SyncDaemon
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.recovery import IntentJournal
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes


def _world(tmp_path, n_csps=4):
    clock = SimClock()
    providers = [InMemoryCSP(f"csp{i}") for i in range(n_csps)]
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    client = CyrusClient.create(
        providers,
        CyrusConfig(key="scrub-key", t=2, n=3, **SMALL_CHUNKS),
        client_id="alice",
        engine=engine,
        journal=IntentJournal(tmp_path / "journal.jsonl", clock=clock,
                              fsync=False),
    )
    return client, providers


def _share_locations(client):
    """Every recorded (csp_id, object name) pair in the chunk table."""
    out = []
    for chunk_id in client.chunk_table.all_chunk_ids():
        location = client.chunk_table.get(chunk_id)
        for index, csp_id in location.placements:
            out.append((csp_id, chunk_share_object_name(index, chunk_id)))
    return out


def _provider(providers, csp_id):
    return next(p for p in providers if p.csp_id == csp_id)


def _holds(provider, name):
    return provider.object_size(name) is not None


class TestScrubDetection:
    def test_healthy_table_scrubs_clean(self, tmp_path):
        client, _providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(2000, seed=1))
        report = client.scrub()
        assert report.complete and report.healthy
        assert report.shares_verified > 0
        assert report.shares_repaired == 0

    def test_deleted_share_is_found_and_regenerated(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(2000, seed=2))
        victim_csp, victim_obj = _share_locations(client)[0]
        _provider(providers, victim_csp).delete(victim_obj)
        report = client.scrub()
        assert report.shares_missing >= 1
        assert report.shares_repaired >= 1
        # the object is back, byte-identical to its sibling-reconstruction
        assert _holds(_provider(providers, victim_csp), victim_obj)
        assert client.scrub().healthy  # second pass: nothing left to fix

    def test_corrupt_share_is_found_and_rewritten(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(2000, seed=3))
        victim_csp, victim_obj = _share_locations(client)[0]
        victim = _provider(providers, victim_csp)
        blob = victim.download(victim_obj)
        victim.upload(victim_obj, bytes([blob[0] ^ 0xFF]) + blob[1:])
        report = client.scrub()
        assert report.shares_corrupt >= 1
        assert report.shares_repaired >= 1
        assert client.scrub().healthy
        # the repaired file still reads intact
        assert client.get("a.bin").data == deterministic_bytes(2000, seed=3)

    def test_repairs_are_journaled_as_migrate_intents(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(1500, seed=4))
        victim_csp, victim_obj = _share_locations(client)[0]
        _provider(providers, victim_csp).delete(victim_obj)
        client.scrub()
        migrates = [i for i in client.journal.intents() if i.op == "migrate"]
        assert migrates and all(i.committed for i in migrates)

    def test_report_only_mode_repairs_nothing(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(2000, seed=5))
        victim_csp, victim_obj = _share_locations(client)[0]
        _provider(providers, victim_csp).delete(victim_obj)
        report = client.scrub(repair=False)
        assert report.shares_missing >= 1
        assert report.shares_repaired == 0
        assert not _holds(_provider(providers, victim_csp), victim_obj)

    def test_scrub_metrics_match_report(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(2000, seed=6))
        victim_csp, victim_obj = _share_locations(client)[0]
        _provider(providers, victim_csp).delete(victim_obj)
        report = client.scrub()
        snap = client.obs.snapshot()
        assert snap.counter_total(
            "cyrus_scrub_shares_verified_total"
        ) == report.shares_verified
        assert snap.counter_total(
            "cyrus_scrub_shares_repaired_total"
        ) == report.shares_repaired


class TestScrubOrphans:
    def test_orphans_reported_not_deleted_by_default(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(1000, seed=7))
        stray = "f" * 40  # share-shaped name no chunk accounts for
        providers[0].upload(stray, b"stray bytes")
        report = client.scrub()
        assert ("csp0", stray) in report.orphans
        assert report.orphans_deleted == 0
        assert _holds(providers[0], stray)
        snap = client.obs.snapshot()
        assert snap.counter_total("cyrus_scrub_orphans_total") >= 1

    def test_delete_orphans_reclaims_them(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(1000, seed=8))
        stray = "e" * 40
        providers[1].upload(stray, b"stray bytes")
        report = client.scrub(delete_orphans=True)
        assert report.orphans_deleted == 1
        assert not _holds(providers[1], stray)

    def test_non_share_names_are_never_orphans(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(1000, seed=9))
        providers[0].upload("notes.txt", b"operator file")
        report = client.scrub(delete_orphans=True)
        assert all(name != "notes.txt" for _csp, name in report.orphans)
        assert _holds(providers[0], "notes.txt")

    def test_adopts_unrecorded_share_of_known_chunk(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(1000, seed=10))
        # simulate a crashed migration whose upload landed: copy one
        # share to a CSP the table does not record for it
        chunk_id = client.chunk_table.all_chunk_ids()[0]
        location = client.chunk_table.get(chunk_id)
        index, src_csp = location.placements[0]
        spare = next(
            p.csp_id for p in providers
            if p.csp_id not in {c for _i, c in location.placements}
        )
        name = chunk_share_object_name(index, chunk_id)
        blob = _provider(providers, src_csp).download(name)
        _provider(providers, spare).upload(name, blob)
        report = client.scrub()
        assert report.placements_adopted >= 1
        assert (index, spare) in client.chunk_table.get(chunk_id).placements
        assert not report.orphans  # adopted, hence not an orphan


class TestScrubBudget:
    def test_budget_limits_transfers_and_sets_cursor(self, tmp_path):
        client, _providers = _world(tmp_path)
        for i in range(4):
            client.put(f"f{i}.bin", deterministic_bytes(2000, seed=20 + i))
        total = len(client.chunk_table.all_chunk_ids())
        assert total > 2
        report = client.scrub(budget_shares=3)
        assert report.budget_exhausted
        assert report.shares_verified <= 3
        assert 0 < report.chunks_scanned < total
        assert report.cursor == report.chunks_scanned % total

    def test_slices_cover_the_whole_table(self, tmp_path):
        client, providers = _world(tmp_path)
        for i in range(3):
            client.put(f"f{i}.bin", deterministic_bytes(1800, seed=30 + i))
        victim_csp, victim_obj = _share_locations(client)[-1]
        _provider(providers, victim_csp).delete(victim_obj)
        from repro.recovery import Scrubber

        scrubber = Scrubber(client, budget_shares=4)
        repaired = 0
        for _ in range(20):
            report = scrubber.run_slice()
            repaired += report.shares_repaired
            if repaired and not report.budget_exhausted:
                break
        assert repaired >= 1
        assert _holds(_provider(providers, victim_csp), victim_obj)

    def test_unbudgeted_scrub_is_one_full_pass(self, tmp_path):
        client, _providers = _world(tmp_path)
        for i in range(3):
            client.put(f"f{i}.bin", deterministic_bytes(1500, seed=40 + i))
        report = client.scrub()
        assert report.complete and not report.budget_exhausted
        assert report.cursor == 0  # wrapped all the way around


class TestScrubDaemonIntegration:
    def test_daemon_tick_runs_scrub_slices(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(2400, seed=50))
        victim_csp, victim_obj = _share_locations(client)[0]
        _provider(providers, victim_csp).delete(victim_obj)
        daemon = SyncDaemon(client, interval_s=10.0, scrub_budget=6)
        ticks = daemon.run_until(100.0)
        assert sum(t.scrub_verified for t in ticks) > 0
        assert sum(t.scrub_repaired for t in ticks) >= 1
        assert _holds(_provider(providers, victim_csp), victim_obj)

    def test_zero_budget_disables_the_scrub(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(2400, seed=51))
        victim_csp, victim_obj = _share_locations(client)[0]
        _provider(providers, victim_csp).delete(victim_obj)
        daemon = SyncDaemon(client, interval_s=10.0)  # scrub_budget=0
        ticks = daemon.run_until(50.0)
        assert all(t.scrub_verified == 0 for t in ticks)
        assert not _holds(_provider(providers, victim_csp), victim_obj)


class TestScrubUnrecoverable:
    def test_too_few_shares_is_reported_not_hidden(self, tmp_path):
        client, providers = _world(tmp_path)
        client.put("a.bin", deterministic_bytes(900, seed=60))
        chunk_id = client.chunk_table.all_chunk_ids()[0]
        location = client.chunk_table.get(chunk_id)
        survivors = 0
        for index, csp_id in location.placements:
            name = chunk_share_object_name(index, chunk_id)
            holder = _provider(providers, csp_id)
            if not _holds(holder, name):
                continue
            if survivors < location.t - 1:
                survivors += 1
                continue
            holder.delete(name)
        report = client.scrub()
        assert chunk_id in report.unrecoverable_chunks
        assert not report.healthy


class TestScrubBudgetEdge:
    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6, 7, 64])
    def test_no_slice_splits_a_healthy_chunk(self, tmp_path, budget):
        """A slice never starts a chunk it cannot finish, and always
        takes its first one: over a healthy table, budget-limited slices
        report nothing unrecoverable and together verify every share of
        every chunk."""
        client, _providers = _world(tmp_path / f"b{budget}")
        for i in range(6):
            client.put(f"f{i}.bin", deterministic_bytes(3000, seed=70 + i))
        chunk_ids = client.chunk_table.all_chunk_ids()
        total = len(chunk_ids)
        assert total > 21  # past one 64-share slice at n = 3
        from repro.recovery import Scrubber

        scrubber = Scrubber(client, budget_shares=budget)
        covered: set[str] = set()
        for _ in range(2 * total):
            start = scrubber.cursor
            report = scrubber.run_slice()
            assert not report.unrecoverable_chunks, budget
            assert report.chunks_scanned >= 1
            assert report.shares_verified == 3 * report.chunks_scanned
            covered |= {chunk_ids[(start + k) % total]
                        for k in range(report.chunks_scanned)}
            if len(covered) == total:
                break
        assert covered == set(chunk_ids)
        assert client.scrub().healthy
