"""Tests for ranged downloads (partial reads via ChunkMap offsets)."""

import pytest

from tests.conftest import deterministic_bytes


class TestGetRange:
    def test_window_matches_slice(self, client):
        data = deterministic_bytes(30_000, 1)
        client.put("f.bin", data)
        for offset, length in [(0, 100), (12_345, 4_096), (29_000, 5_000),
                               (0, 30_000)]:
            report = client.get_range("f.bin", offset, length)
            assert report.data == data[offset : offset + length]

    def test_zero_length(self, client):
        client.put("f.bin", deterministic_bytes(1000, 2))
        assert client.get_range("f.bin", 10, 0).data == b""

    def test_offset_past_eof(self, client):
        client.put("f.bin", deterministic_bytes(1000, 3))
        assert client.get_range("f.bin", 5000, 100).data == b""

    def test_negative_rejected(self, client):
        client.put("f.bin", deterministic_bytes(100, 4))
        with pytest.raises(ValueError):
            client.get_range("f.bin", -1, 10)
        with pytest.raises(ValueError):
            client.get_range("f.bin", 0, -5)

    def test_downloads_fewer_bytes_than_full_get(self, client):
        data = deterministic_bytes(50_000, 5)
        client.put("f.bin", data)
        full = client.get("f.bin")
        partial = client.get_range("f.bin", 20_000, 500)
        assert partial.data == data[20_000:20_500]
        assert partial.bytes_downloaded < full.bytes_downloaded / 3

    def test_ranged_read_of_old_version(self, client):
        v1 = deterministic_bytes(8_000, 6)
        v2 = deterministic_bytes(9_000, 7)
        client.put("f.bin", v1)
        client.put("f.bin", v2)
        report = client.get_range("f.bin", 1000, 2000, version=1)
        assert report.data == v1[1000:3000]

    def test_boundary_straddling(self, client):
        # a window crossing several chunk boundaries must splice right
        data = deterministic_bytes(40_000, 8)
        node = client.put("f.bin", data).node
        assert len(node.chunks) > 3, "test needs a multi-chunk file"
        second = node.chunks[1]
        offset = second.offset - 10
        length = second.size + 20
        report = client.get_range("f.bin", offset, length)
        assert report.data == data[offset : offset + length]

    def test_corrupt_chunk_repaired_in_range(self, client, csps):
        from repro.core.naming import chunk_share_object_name

        data = deterministic_bytes(10_000, 10)
        node = client.put("f.bin", data).node
        target = node.chunks[0]
        share = node.shares_of(target.chunk_id)[0]
        provider = next(c for c in csps if c.csp_id == share.csp_id)
        name = chunk_share_object_name(share.index, share.chunk_id)
        blob = bytearray(provider.download(name))
        blob[0] ^= 0xFF
        provider.upload(name, bytes(blob))
        report = client.get_range("f.bin", target.offset, 50)
        assert report.data == data[target.offset : target.offset + 50]
