"""Unit tests for maintenance: import, pruning and GC.

The engine batches and DELETE ops of a prune and the collection that
follows are pinned in ``tests/data/op_budget.json`` ``maintenance``.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import OpKind
from repro.csp.memory import InMemoryCSP
from repro.errors import CSPError, MetadataError, ShareGatherError
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
