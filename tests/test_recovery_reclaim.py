"""Crash chaos for the replays that reclaim or adopt shares.

Every object a client deletes goes through one reclaim (one rule, one
``DELETE`` batch), and the replays that drive it commit an intent only
when its batch came back clean.  Two sweeps here:

* **lazy migration** — a read re-homes the shares stranded on two
  removed CSPs under one journaled ``migrate`` intent per chunk; the
  client dies at each PUT of the re-home in turn.  A fresh client
  replays the journal: the killed intent's landed shares are adopted in
  one ``LIST`` batch, every chunk reads back bit-exact, and a census
  finds no orphan.
* **a collection over a dark CSP** — the collection's deletes fail at
  one CSP, so its ``gc`` intent stays open and the next recovery
  re-deletes what was left: no orphan remains.

And the rule's other half: a replay never deletes a share of a chunk
the synced table holds, whoever published it.
"""

from __future__ import annotations

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.faults.plan import SimulatedCrash
from repro.recovery import IntentJournal
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

#: n = 4 on 6 CSPs, so a chunk may hold shares on both removed CSPs and
#: its re-home is one intent of two moves (one lands before the kill)
CONFIG = dict(key="reclaim-key", t=2, n=4, **SMALL_CHUNKS)
REMOVED = ("csp0", "csp1")


def _client(providers, journal_path, clock=None):
    clock = clock or SimClock()
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    return CyrusClient.create(
        providers, CyrusConfig(**CONFIG), client_id="alice", engine=engine,
        journal=IntentJournal(journal_path, clock=clock, fsync=False))


def _faulty(inner, journal_path, specs, seed):
    clock = SimClock()
    plan = FaultPlan(specs, seed=seed)
    return _client([FaultyProvider(p, plan, clock=clock) for p in inner],
                   journal_path, clock=clock)


def _migration_world(tmp_path, data, specs, seed):
    """Stored ``data``, then a client over ``specs``-faulted providers
    that removed :data:`REMOVED`: its next read re-homes their shares."""
    journal_path = tmp_path / "journal.jsonl"
    journal_path.unlink(missing_ok=True)
    inner = [InMemoryCSP(f"csp{i}") for i in range(6)]
    _client(inner, journal_path).put("doc.bin", data)
    victim = _faulty(inner, journal_path, specs, seed)
    victim.sync()
    for csp_id in REMOVED:
        victim.remove_csp(csp_id)
    return inner, journal_path, victim


class TestCrashDuringMigration:
    def test_every_kill_point_of_a_rehome_recovers(self, tmp_path,
                                                    fault_seed):
        data = deterministic_bytes(3000, seed=fault_seed)
        _inner, _path, dry = _migration_world(tmp_path, data, [], fault_seed)
        puts = [(m.new_csp, chunk_share_object_name(m.index, m.chunk_id))
                for m in dry.get("doc.bin").migrations]
        assert len(puts) > 1
        for kill, (csp_id, name) in enumerate(puts):
            inner, journal_path, victim = _migration_world(
                tmp_path, data, [FaultSpec(
                    kind=FaultKind.CRASH, ops=("upload",), csp_ids=(csp_id,),
                    name_prefix=name, max_hits=1)], fault_seed)
            try:
                victim.get("doc.bin")
                raise AssertionError(f"PUT #{kill} did not kill the read")
            except SimulatedCrash:
                pass
            [killed] = victim.journal.incomplete()
            begin = killed.first("begin").fields
            stored = {p.csp_id: {i.name for i in p.list()} for p in inner}
            landed = {(index, csp) for index, csp, obj in begin["moves"]
                      if obj in stored[csp]}

            survivor = _client(inner, journal_path)
            for removed in REMOVED:
                survivor.remove_csp(removed)
            report = survivor.run_recovery()
            assert report.incomplete_remaining == 0, kill
            assert report.placements_adopted == len(landed), kill
            placements = survivor.chunk_table.get(begin["chunk"]).placements
            assert landed <= set(placements), kill
            assert survivor.get("doc.bin").data == data, kill
            census = survivor.scrub(repair=False, scrub_metadata=False)
            assert census.orphans == (), kill
            assert survivor.run_recovery().clean


class TestCollectionOverADarkCSP:
    def test_intent_stays_open_until_recovery(self, tmp_path, fault_seed):
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        dark = _faulty(inner, journal_path, [FaultSpec(
            kind=FaultKind.OUTAGE, ops=("delete",), csp_ids=("csp3",))],
            fault_seed)
        dark.put("x", deterministic_bytes(2600, seed=fault_seed))
        kept = deterministic_bytes(2600, seed=fault_seed + 1)
        dark.put("x", kept)
        dark.prune_history("x", 1)
        assert dark.collect_garbage().chunks_deleted
        # a delete failed: the collection is not done, so not committed
        assert [i.op for i in dark.journal.incomplete()] == ["gc"]

        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        assert report.incomplete_remaining == 0
        assert report.rolled_forward == 1 and report.shares_deleted
        assert survivor.scrub(repair=False).orphans == ()
        assert survivor.get("x").data == kept
        assert survivor.run_recovery().clean


class TestReplaysKeepLiveChunks:
    """Shares are content-addressed: a chunk another node names is live
    data, even when a replay's own record lists its shares."""

    def test_rollback_keeps_a_chunk_another_client_published(
            self, tmp_path, fault_seed):
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        data = deterministic_bytes(2600, seed=fault_seed)
        victim = _faulty(inner, journal_path, [FaultSpec(
            kind=FaultKind.CRASH, ops=("upload",), name_prefix="md-",
            max_hits=1)], fault_seed)
        try:
            victim.put("a.bin", data)  # dies before its first metadata PUT
            raise AssertionError("the put was not killed")
        except SimulatedCrash:
            pass
        # another device stores the same bytes: the same share objects
        other = CyrusClient.create(inner, CyrusConfig(**CONFIG),
                                   client_id="bob")
        other.put("b.bin", data)

        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        assert (report.rolled_back, report.shares_deleted) == (1, 0)
        fresh = CyrusClient.create(inner, CyrusConfig(**CONFIG),
                                   client_id="carol")
        assert fresh.get("b.bin").data == data

    def test_gc_replay_keeps_a_resurrected_chunk(self, tmp_path,
                                                 fault_seed):
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        data = deterministic_bytes(2600, seed=fault_seed)
        client = _client(inner, journal_path)
        client.put("x", data)
        # a collection doomed these chunks, then a put named them again
        table = client.chunk_table
        client.journal.begin("gc", chunks=[
            {"chunk": chunk_id, "placements": [
                list(p) for p in table.get(chunk_id).placements]}
            for chunk_id in table.all_chunk_ids()])

        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        assert (report.rolled_forward, report.shares_deleted) == (1, 0)
        assert survivor.get("x").data == data
