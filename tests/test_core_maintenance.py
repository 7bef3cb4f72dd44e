"""Unit tests for maintenance: import, pruning and GC.

The engine batches and DELETE ops of a prune and the collection that
follows, the DELETEs a removed CSP gets (none), and the batches of a
put rollback and of a migrate replay are pinned in
``tests/data/op_budget.json`` ``maintenance``.
"""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import OpKind
from repro.csp.memory import InMemoryCSP
from repro.errors import CSPError, MetadataError, ShareGatherError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.faults.plan import SimulatedCrash
from repro.recovery import IntentJournal
from repro.util.hashing import sha1_hex
from tests.conftest import SMALL_CHUNKS, deterministic_bytes

BUDGET = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["maintenance"]


class TestImportObject:
    def test_adopts_plain_object(self, client, csps):
        # a file the user uploaded directly to one provider, pre-CYRUS
        legacy = deterministic_bytes(8000, 1)
        csps[1].upload("vacation.jpg", legacy)
        report = client.import_object("csp1", "vacation.jpg")
        assert report.node.name == "vacation.jpg"
        assert client.get("vacation.jpg").data == legacy

    def test_target_name(self, client, csps):
        csps[0].upload("old-name.bin", b"payload " * 100)
        client.import_object("csp0", "old-name.bin",
                             target_name="imported/new-name.bin")
        assert client.get("imported/new-name.bin").data == b"payload " * 100

    def test_original_left_in_place(self, client, csps):
        csps[2].upload("keep-me", b"original")
        client.import_object("csp2", "keep-me")
        assert csps[2].download("keep-me") == b"original"

    def test_missing_object(self, client):
        with pytest.raises(CSPError):
            client.import_object("csp0", "no-such-object")

    def test_imported_data_is_scattered(self, client, csps):
        legacy = deterministic_bytes(9000, 2)
        csps[3].upload("solo.bin", legacy)
        report = client.import_object("csp3", "solo.bin")
        holders = {s.csp_id for s in report.node.shares}
        assert len(holders) >= client.config.t


class TestPruneHistory:
    def put_versions(self, client, count=4):
        versions = []
        for i in range(count):
            data = deterministic_bytes(3000 + i * 100, 10 + i)
            client.put("doc.bin", data)
            versions.append(data)
        return versions

    def test_prunes_old_versions(self, client):
        versions = self.put_versions(client)
        report = client.prune_history("doc.bin", keep_versions=2)
        assert report.nodes_deleted == 2
        assert len(client.history("doc.bin")) == 2
        assert client.get("doc.bin").data == versions[-1]
        assert client.get("doc.bin", version=1).data == versions[-2]

    def test_pruned_versions_unreachable(self, client):
        self.put_versions(client)
        client.prune_history("doc.bin", keep_versions=1)
        with pytest.raises(MetadataError):
            client.get("doc.bin", version=1)

    def test_prune_removes_remote_metadata(self, client, csps, config):
        self.put_versions(client)
        client.prune_history("doc.bin", keep_versions=1)
        fresh = CyrusClient.create(csps, config, client_id="verifier")
        fresh.recover()
        assert len(fresh.history("doc.bin")) == 1

    def test_noop_when_short(self, client):
        self.put_versions(client, count=2)
        report = client.prune_history("doc.bin", keep_versions=5)
        assert report.nodes_deleted == 0

    def test_requires_resolved_conflicts(self, client, second_client):
        client.put("doc.bin", b"base " * 50)
        second_client.sync()
        client.uploader.upload("doc.bin", b"AA " * 60, client_id="alice")
        second_client.uploader.upload("doc.bin", b"BB " * 60, client_id="bob")
        client.sync()
        with pytest.raises(MetadataError):
            client.prune_history("doc.bin")

    def test_keep_zero_rejected(self, client):
        self.put_versions(client, count=1)
        with pytest.raises(MetadataError):
            client.prune_history("doc.bin", keep_versions=0)


class TestGarbageCollection:
    def test_nothing_to_collect_when_referenced(self, client):
        client.put("a.bin", deterministic_bytes(5000, 20))
        report = client.collect_garbage()
        assert report.chunks_deleted == 0

    def test_reclaims_pruned_chunks(self, client, csps):
        old = deterministic_bytes(6000, 21)
        new = deterministic_bytes(6000, 22)  # fully different content
        client.put("doc.bin", old)
        client.put("doc.bin", new)
        before = sum(c.stored_bytes for c in csps)
        client.prune_history("doc.bin", keep_versions=1)
        report = client.collect_garbage()
        after = sum(c.stored_bytes for c in csps)
        assert report.chunks_deleted > 0
        assert report.bytes_reclaimed > 0
        assert after < before
        # the kept version still reads back
        assert client.get("doc.bin").data == new

    def test_shared_chunks_survive(self, client):
        shared = deterministic_bytes(5000, 23)
        client.put("a.bin", shared)
        client.put("b.bin", shared)
        client.put("a.bin", deterministic_bytes(5000, 24))
        client.prune_history("a.bin", keep_versions=1)
        client.collect_garbage()
        # b.bin still references the shared chunks
        assert client.get("b.bin").data == shared

    def test_tombstoned_files_keep_chunks(self, client):
        data = deterministic_bytes(4000, 25)
        client.put("f.bin", data)
        client.delete("f.bin")
        report = client.collect_garbage()
        assert report.chunks_deleted == 0  # history still references them
        assert client.get("f.bin").data == data


class TestMaintenanceOpBudget:
    def test_prune_and_gc_are_one_delete_batch_each(self):
        csps = [InMemoryCSP(f"csp{i}") for i in range(BUDGET["csps"])]
        config = CyrusConfig(key="test-key", t=BUDGET["t"], n=BUDGET["n"],
                             **SMALL_CHUNKS)
        client = CyrusClient.create(csps, config, client_id="alice")
        for i in range(BUDGET["versions"]):
            client.put("doc.bin",
                       deterministic_bytes(BUDGET["file_bytes"], 40 + i))
        seen: Counter[str] = Counter()
        inner = client.engine.execute

        def execute(ops, *args, **kwargs):
            seen["batches"] += 1
            seen["deletes"] += sum(op.kind is OpKind.DELETE for op in ops)
            return inner(ops, *args, **kwargs)

        client.engine.execute = execute
        pruned = client.prune_history("doc.bin", keep_versions=1)
        assert {**seen, "nodes_deleted": pruned.nodes_deleted} == \
            BUDGET["prune"]
        seen.clear()
        report = client.collect_garbage()
        assert {**seen, "chunks_deleted": report.chunks_deleted} == \
            BUDGET["gc"]
        assert report.shares_deleted == BUDGET["gc"]["deletes"]
        # left: the kept node at every slot and n shares of each chunk
        assert sum(len(c.list()) for c in csps) == len(csps) + BUDGET[
            "n"] * len(client.chunk_table)


def _config() -> CyrusConfig:
    return CyrusConfig(key="test-key", t=BUDGET["t"], n=BUDGET["n"],
                       **SMALL_CHUNKS)


def _batches(client) -> list[list]:
    """Record ``[kind, ops]`` of each engine batch ``client`` runs."""
    seen: list[list] = []
    inner = client.engine.execute

    def execute(ops, *args, **kwargs):
        seen.append([ops[0].kind.value, len(ops)])
        return inner(ops, *args, **kwargs)

    client.engine.execute = execute
    return seen


class TestRemovedCSP:
    """A removed CSP is a permanent departure: no sync brings its
    placements back into the chunk table, and no deletion reaches it."""

    def _world(self):
        line = BUDGET["removed_csp"]
        csps = [InMemoryCSP(f"csp{i}") for i in range(line["csps"])]
        alice = CyrusClient.create(csps, _config(), client_id="alice")
        bob = CyrusClient.create(csps, _config(), client_id="bob")
        for i in range(2):
            bob.put("x", deterministic_bytes(line["file_bytes"], 40 + i))
        alice.remove_csp("csp0")
        alice.sync()
        return csps, alice, bob

    def test_sync_keeps_a_removed_csp_out_of_the_table(self):
        _csps, alice, _bob = self._world()
        assert "csp0" not in alice.storage_stats()["per_csp_bytes"]
        assert all(csp != "csp0" for cid in alice.chunk_table.all_chunk_ids()
                   for _i, csp in alice.chunk_table.get(cid).placements)
        # a dedup node takes its ShareMap from the table
        same = deterministic_bytes(BUDGET["removed_csp"]["file_bytes"], 41)
        node = alice.put("y", same).node
        assert node.shares and all(s.csp_id != "csp0" for s in node.shares)

    def test_add_csp_readmits_a_removed_id(self):
        csps, alice, bob = self._world()
        alice.add_csp(csps[0])
        bob.put("z", deterministic_bytes(6000, 7))
        alice.sync()
        assert "csp0" in alice.storage_stats()["per_csp_bytes"]

    def test_prune_and_gc_send_no_delete_to_it(self):
        _csps, alice, _bob = self._world()
        seen: Counter[str] = Counter()
        inner = alice.engine.execute

        def execute(ops, *args, **kwargs):
            seen["deletes"] += sum(op.kind is OpKind.DELETE
                                   and op.csp_id == "csp0" for op in ops)
            return inner(ops, *args, **kwargs)

        alice.engine.execute = execute
        assert alice.prune_history("x", 1).nodes_deleted == 1
        pruned = seen.pop("deletes", 0)
        assert alice.collect_garbage().chunks_deleted
        assert {"prune_deletes": pruned,
                "gc_deletes": seen["deletes"]} == {
            k: BUDGET["removed_csp"][k] for k in ("prune_deletes",
                                                  "gc_deletes")}


class TestReplayBudget:
    def test_rollback_lists_the_copies_then_deletes_in_one_batch(
            self, tmp_path):
        csps = [InMemoryCSP(f"csp{i}") for i in range(BUDGET["csps"])]
        plan = FaultPlan([FaultSpec(kind=FaultKind.CRASH, ops=("upload",),
                                    name_prefix="md-", max_hits=1)], seed=0)
        victim = CyrusClient.create(
            [FaultyProvider(p, plan) for p in csps], _config(),
            client_id="alice",
            journal=IntentJournal(tmp_path / "j.jsonl", fsync=False))
        with pytest.raises(SimulatedCrash):
            victim.put("doc.bin", deterministic_bytes(BUDGET["file_bytes"], 40))
        survivor = CyrusClient.create(
            csps, _config(), client_id="alice",
            journal=IntentJournal(tmp_path / "j.jsonl", fsync=False))
        seen = _batches(survivor)
        assert survivor.run_recovery().rolled_back == 1
        assert seen == BUDGET["rollback"]["batches"]
        assert sum(len(c.list()) for c in csps) == 0

    def test_migrate_replay_is_one_batch(self, tmp_path):
        line = BUDGET["migrate_replay"]
        csps = [InMemoryCSP(f"csp{i}") for i in range(BUDGET["csps"])]
        by_id = {c.csp_id: c for c in csps}
        client = CyrusClient.create(
            csps, _config(), client_id="alice",
            journal=IntentJournal(tmp_path / "j.jsonl", fsync=False))
        client.put("doc.bin", deterministic_bytes(BUDGET["file_bytes"], 41))
        live = client.chunk_table.all_chunk_ids()[0]
        location = client.chunk_table.get(live)
        [spare] = sorted(set(by_id) - set(location.csps()))
        gone = sha1_hex(b"a chunk no table holds")
        replays = {
            # a re-home of every share of a live chunk onto the spare
            # CSP, and shares of a forgotten chunk, each landed
            "live": (live, [(index, spare, holder)
                            for index, holder in location.placements]),
            "forgotten": (gone, [(index, f"csp{index}", None)
                                 for index in range(line["moves"])]),
        }
        for kind, (chunk_id, moves) in replays.items():
            for index, csp_id, holder in moves:
                name = chunk_share_object_name(index, chunk_id)
                by_id[csp_id].upload(name, by_id[holder].download(name)
                                     if holder else b"share")
            client.journal.begin("migrate", chunk=chunk_id, moves=[
                [index, csp_id, chunk_share_object_name(index, chunk_id)]
                for index, csp_id, _holder in moves])
            seen = _batches(client)
            report = client.run_recovery()
            assert seen == line[kind], kind
            done = report.placements_adopted + report.shares_deleted
            assert done == len(moves) == line["moves"]
        assert {i for i, c in client.chunk_table.get(live).placements
                if c == spare} == {0, 1, 2}
        left = {info.name for c in csps for info in c.list()}
        assert not left & {chunk_share_object_name(index, gone)
                           for index in range(line["moves"])}


def _delete_sites(source: str) -> set[str | None]:
    """The functions (None: module level) naming ``OpKind.DELETE``."""
    sites: set[str | None] = set()

    def walk(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "DELETE"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "OpKind"):
                sites.add(function)
            walk(child, function)

    walk(ast.parse(source), None)
    return sites


def test_reclaim_builds_every_delete_op():
    """One deletion path: outside the engine that applies it and the
    DepSky baseline's lock protocol, only ``reclaim`` builds a DELETE."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = {
        path.relative_to(src).as_posix(): sites
        for path in sorted(src.rglob("*.py"))
        if (sites := _delete_sites(path.read_text(encoding="utf-8")))
    }
    found.pop("core/transfer.py")
    found.pop("depsky/locks.py")
    assert found == {"core/maintenance.py": {"reclaim"}}


class TestCrossDeviceGC:
    @pytest.mark.xfail(
        strict=True, raises=ShareGatherError,
        reason="ROADMAP item 14: a device that never learns of another "
               "device's prune dedups against the chunks its collection "
               "deleted")
    def test_dedup_after_another_devices_gc(self, client, second_client,
                                             csps, config):
        d0 = deterministic_bytes(6000, 50)
        d1 = deterministic_bytes(6000, 51)
        client.put("x", d0)
        client.put("x", d1)
        second_client.sync()
        client.prune_history("x", 1)
        assert client.collect_garbage().chunks_deleted
        second_client.put("y", d0)
        assert second_client.get("y").data == d0
        fresh = CyrusClient.create(csps, config, client_id="carol")
        assert fresh.get("y").data == d0
