"""Unit tests for the download pipeline (Algorithm 3)."""

import dataclasses

import pytest

from repro.errors import InsufficientSharesError, MetadataError
from repro.metadata.codec import decode_node, encode_node
from repro.util.hashing import file_id_of, sha1_hex
from tests.conftest import deterministic_bytes


class TestBasicDownload:
    def test_roundtrip(self, client):
        data = deterministic_bytes(12_000, 1)
        client.put("f.bin", data)
        report = client.get("f.bin")
        assert report.data == data
        assert report.bytes_downloaded > 0
        assert report.plans

    def test_downloads_only_t_shares_per_chunk(self, client, config):
        data = deterministic_bytes(8000, 2)
        client.put("f.bin", data)
        report = client.get("f.bin")
        per_chunk: dict[str, int] = {}
        for res in report.share_results:
            if res.ok:
                per_chunk[res.op.chunk_id] = per_chunk.get(res.op.chunk_id, 0) + 1
        assert all(count == config.t for count in per_chunk.values())

    def test_version_traversal(self, client):
        v1 = deterministic_bytes(4000, 3)
        v2 = deterministic_bytes(4200, 4)
        client.put("f.bin", v1)
        client.put("f.bin", v2)
        assert client.get("f.bin", version=0).data == v2
        assert client.get("f.bin", version=1).data == v1

    def test_unknown_file(self, client):
        with pytest.raises(MetadataError):
            client.get("missing.bin")

    def test_get_specific_node(self, client):
        data = deterministic_bytes(3000, 5)
        node = client.put("f.bin", data).node
        assert client.get_node(node).data == data


class TestFailover:
    def test_reroutes_after_share_loss(self, client, csps, config):
        data = deterministic_bytes(10_000, 6)
        node = client.put("f.bin", data).node
        # wipe every share stored at one provider
        victim = csps[0]
        for info in list(victim.list()):
            victim.delete(info.name)
        report = client.get("f.bin")
        assert report.data == data

    def test_fails_when_too_many_csps_lost(self, client, csps, config):
        data = deterministic_bytes(5000, 7)
        client.put("f.bin", data)
        # losing n - t + 1 providers' shares makes some chunk short
        for victim in csps[:3]:
            for info in list(victim.list()):
                victim.delete(info.name)
        with pytest.raises(InsufficientSharesError):
            client.get("f.bin")

    def test_integrity_check(self, client, csps):
        from repro.core.naming import chunk_share_object_name
        from repro.errors import CyrusError

        data = deterministic_bytes(4000, 8)
        node = client.put("f.bin", data).node
        # corrupt every stored copy of one chunk's shares
        target = node.chunks[0].chunk_id
        for share in node.shares_of(target):
            name = chunk_share_object_name(share.index, share.chunk_id)
            provider = next(c for c in csps if c.csp_id == share.csp_id)
            blob = bytearray(provider.download(name))
            blob[0] ^= 0xFF
            provider.upload(name, bytes(blob))
        with pytest.raises(CyrusError):
            client.get("f.bin")


class TestConflictsSurfaced:
    def test_download_reports_conflicts(self, client, second_client):
        client.put("f.txt", b"base content " * 50)
        second_client.sync()
        client.uploader.upload("f.txt", b"alice edit " * 60, client_id="alice")
        second_client.uploader.upload("f.txt", b"bob edit " * 60, client_id="bob")
        client.sync()
        report = client.get("f.txt")
        assert any(c.kind == "divergence" for c in report.conflicts)


class TestDeletedFiles:
    def test_tombstone_resolves_to_live_version(self, client):
        data = deterministic_bytes(2000, 9)
        client.put("f.bin", data)
        client.delete("f.bin")
        assert client.get("f.bin").data == data

    def test_never_lived_file(self, client):
        # tombstone with no live ancestor
        client.put("f.bin", deterministic_bytes(100, 10))
        client.delete("f.bin")
        client.delete("f.bin") if False else None
        # direct node download of the tombstone is refused
        tomb = client.tree.latest("f.bin")
        assert tomb.deleted
        with pytest.raises(MetadataError):
            client.downloader.download(tomb)


class TestChunkMapFailsClosed:
    """A node whose ChunkMap does not hash to its file id is refused
    before any share is fetched, by a full and by a ranged read alike;
    one whose records do not tile ``[0, size)`` in order never decodes,
    so no read is handed one."""

    DATA = deterministic_bytes(6000, 11)

    def _refused(self, client, forged) -> None:
        def engine_ops() -> float:
            return client.obs.snapshot().counter_total("cyrus_ops_total")

        before = engine_ops()
        with pytest.raises(MetadataError, match="ChunkMap"):
            client.downloader.download(forged)
        with pytest.raises(MetadataError, match="ChunkMap"):
            client.downloader.download_range(forged, 0, 100)
        assert engine_ops() == before

    @staticmethod
    def _undecodable(forged) -> None:
        with pytest.raises(MetadataError, match="ChunkMap"):
            decode_node(encode_node(forged))

    def _retiled(self, node, size=None, **shift):
        """``node`` with record 1 moved by ``shift`` and ``size``, its
        file id recomputed so only the tiling is wrong."""
        first, second, *rest = node.chunks
        chunks = (first, dataclasses.replace(second, **shift), *rest)
        size = node.size if size is None else size
        return dataclasses.replace(
            node, chunks=chunks, size=size,
            file_id=file_id_of(size, (r.chunk_id for r in chunks)))

    def test_a_forged_file_id(self, client):
        node = client.put("f.bin", self.DATA).node
        # the id of the whole file's bytes is not the ChunkMap's
        self._refused(client, dataclasses.replace(
            node, file_id=sha1_hex(self.DATA)))

    def test_a_gap(self, client):
        node = client.put("f.bin", self.DATA).node
        second = node.chunks[1]
        self._undecodable(self._retiled(node, offset=second.offset + 1))

    def test_an_overlap(self, client):
        node = client.put("f.bin", self.DATA).node
        second = node.chunks[1]
        self._undecodable(self._retiled(node, offset=second.offset - 1))

    def test_a_short_size(self, client):
        node = client.put("f.bin", self.DATA).node
        self._undecodable(self._retiled(node, size=node.size - 1))
