"""Tests for ranged downloads (partial reads via ChunkMap offsets)."""

import pytest

from repro.core.config import CyrusConfig
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

    def test_window_node_carries_exactly_the_window_shares(
            self, client, monkeypatch):
        data = deterministic_bytes(40_000, 9)
        node = client.put("f.bin", data).node
        seen = []
        states = client.downloader._chunk_states

        def spy(window_node):
            seen.append(window_node)
            return states(window_node)

        monkeypatch.setattr(client.downloader, "_chunk_states", spy)
        offset, length = node.chunks[1].offset - 10, node.chunks[1].size + 20
        client.get_range("f.bin", offset, length)
        (window,) = seen
        ids = {r.chunk_id for r in node.chunks[:3]}
        assert {r.chunk_id for r in window.chunks} == ids
        assert window.shares == tuple(
            s for s in node.shares if s.chunk_id in ids)
        assert len(window.shares) == len(ids) * node.chunks[0].n

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


class TestGetRangeReadsLikeGet:
    """``get_range`` resolves, syncs and retries through ``get``'s path."""

    def test_reads_past_an_unreachable_metadata_plane(self):
        from repro.core.client import CyrusClient
        from repro.core.transfer import DirectEngine
        from repro.csp.memory import InMemoryCSP
        from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
        from repro.util.clock import SimClock
        from tests.conftest import SMALL_CHUNKS

        # from t=100 on, listing the metadata namespace fails everywhere
        plan = FaultPlan([FaultSpec(
            kind=FaultKind.OUTAGE, ops=("list",), name_prefix="md-",
            window_time=(100.0, float("inf")),
        )], seed=0)
        clock = SimClock()
        providers = [FaultyProvider(InMemoryCSP(f"csp{i}"), plan, clock=clock)
                     for i in range(3)]
        client = CyrusClient.create(
            providers, CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS),
            engine=DirectEngine({p.csp_id: p for p in providers},
                                clock=clock),
        )
        data = deterministic_bytes(5_000, 11)
        client.put("f.bin", data)
        clock.advance(100.0)
        assert client.get_range("f.bin", 100, 900).data == data[100:1000]
        assert any(e.kind == "sync_degraded" for e in client.health_events)

    def test_tombstone_reads_the_last_live_version(self, client):
        data = deterministic_bytes(5_000, 12)
        client.put("f.bin", data)
        client.delete("f.bin")
        assert client.get("f.bin").data == data
        assert client.get_range("f.bin", 100, 900).data == data[100:1000]

    def test_reprobes_failed_providers_and_retries_once(self, client):
        data = deterministic_bytes(300, 13)  # one chunk
        node = client.put("f.bin", data).node
        # sideline two of the chunk's three holders, though both are up
        for share in node.shares[:2]:
            client.health.trip(share.csp_id)
        assert client.get_range("f.bin", 10, 100).data == data[10:110]
        assert not [c for c in client.cloud.active_csps()
                    if client.health.dark(c)]
