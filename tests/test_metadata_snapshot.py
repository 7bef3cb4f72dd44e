"""Tests for local metadata-tree persistence (Section 3.2)."""

import pytest

from repro.errors import MetadataError
from repro.metadata import MetadataTree
from repro.metadata.snapshot import (
    SNAPSHOT_VERSION,
    dump_snapshot,
    load_snapshot,
    load_tree,
    quarantine_path,
    save_tree,
)
from tests.conftest import deterministic_bytes
from tests.test_metadata_tree import mk


class TestSnapshotCodec:
    def test_roundtrip(self):
        nodes = [mk("f", "v1"), mk("g", "w1")]
        restored = load_snapshot(dump_snapshot(nodes))
        assert {n.node_id for n in restored} == {n.node_id for n in nodes}

    def test_empty(self):
        assert load_snapshot(dump_snapshot([])) == []

    def test_deterministic_bytes(self):
        nodes = [mk("f", "v1"), mk("g", "w1")]
        assert dump_snapshot(nodes) == dump_snapshot(reversed(nodes))

    def test_corrupt_rejected(self):
        with pytest.raises(MetadataError):
            load_snapshot(b"not a snapshot")
        with pytest.raises(MetadataError):
            load_snapshot(b'{"v": 99, "nodes": []}')
        blob = bytearray(dump_snapshot([mk("f", "v1")]))
        assert blob[4] == SNAPSHOT_VERSION  # after the 4-byte magic
        blob[4] = 99
        with pytest.raises(MetadataError, match="version"):
            load_snapshot(bytes(blob))


class TestTreePersistence:
    def test_save_load(self, tmp_path):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        tree.add(mk("f", "v2", prev=a.node_id, modified=2.0))
        path = tmp_path / "snap.json"
        assert save_tree(tree, path) == 2

        fresh = MetadataTree()
        assert load_tree(fresh, path) == 2
        assert fresh.node_ids() == tree.node_ids()
        assert fresh.latest("f").node_id == tree.latest("f").node_id

    def test_missing_file_is_empty(self, tmp_path):
        tree = MetadataTree()
        assert load_tree(tree, tmp_path / "nope.json") == 0

    def test_merge_into_nonempty(self, tmp_path):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        save_tree(tree, tmp_path / "snap.json")
        other = MetadataTree()
        other.add(a)  # already known
        other.add(mk("g", "w1"))
        assert load_tree(other, tmp_path / "snap.json") == 0  # nothing new
        assert len(other) == 2


class TestCrashSafety:
    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        tree = MetadataTree()
        tree.add(mk("f", "v1"))
        path = tmp_path / "snap.json"
        save_tree(tree, path)
        save_tree(tree, path)  # overwrite goes through the same rename
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_torn_snapshot_is_quarantined_not_fatal(self, tmp_path):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        path = tmp_path / "snap.json"
        save_tree(tree, path)
        # the failure save_tree's rename discipline prevents for *new*
        # writes, injected directly: a truncated file from an old crash
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        fresh = MetadataTree()
        assert load_tree(fresh, path) == 0  # fresh start, not a raise
        assert len(fresh) == 0
        assert not path.exists()  # set aside ...
        assert quarantine_path(path).exists()  # ... for inspection

    def test_garbage_snapshot_is_quarantined(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_bytes(b"\x00\xff not a snapshot")
        fresh = MetadataTree()
        assert load_tree(fresh, path) == 0
        assert quarantine_path(path).exists()

    def test_quarantined_client_restarts_as_fresh(self, client, csps,
                                                  config, tmp_path):
        """The snapshot is a convenience copy: losing it to corruption
        must cost only a full sync, never the data."""
        from repro.core.client import CyrusClient

        data = deterministic_bytes(3000, 4)
        client.put("f.bin", data)
        snap = tmp_path / "state.json"
        client.save_local_state(snap)
        snap.write_bytes(b'{"v": 1, "nodes": ["garbage')

        restarted = CyrusClient.create(csps, config, client_id="alice")
        assert restarted.load_local_state(snap) == 0
        assert quarantine_path(snap).exists()
        restarted.sync()  # the full first sync a fresh client does
        assert restarted.get("f.bin", sync_first=False).data == data


class TestClientPersistence:
    def test_restart_without_full_recover(self, client, csps, config,
                                          tmp_path):
        from repro.core.client import CyrusClient

        data = deterministic_bytes(5000, 1)
        client.put("f.bin", data)
        snap = tmp_path / "state.json"
        assert client.save_local_state(snap) == 1

        restarted = CyrusClient.create(csps, config, client_id="alice")
        assert restarted.load_local_state(snap) == 1
        # chunk table rebuilt: dedup works immediately, no sync needed
        report = restarted.put("copy.bin", data, sync_first=False)
        assert report.new_chunks == 0
        assert restarted.get("f.bin", sync_first=False).data == data

    def test_incremental_sync_after_load(self, client, second_client,
                                         csps, config, tmp_path):
        from repro.core.client import CyrusClient

        client.put("old.bin", deterministic_bytes(1000, 2))
        snap = tmp_path / "state.json"
        client.save_local_state(snap)
        # another device publishes while we were offline
        second_client.put("new.bin", deterministic_bytes(1000, 3))

        restarted = CyrusClient.create(csps, config, client_id="alice")
        restarted.load_local_state(snap)
        report = restarted.sync()
        assert report.new_nodes == 1  # only the node published since
        assert {e.name for e in restarted.list_files(sync_first=False)} == {
            "old.bin", "new.bin",
        }
