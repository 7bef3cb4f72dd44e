"""Unit tests for the upload pipeline (Algorithm 2)."""

import pytest

from repro.core.naming import chunk_share_object_name
from repro.errors import TransferError
from repro.metadata.node import ROOT_ID
from tests.conftest import deterministic_bytes


class TestBasicUpload:
    def test_report_fields(self, client):
        data = deterministic_bytes(5000, seed=1)
        report = client.put("f.bin", data)
        assert report.new_chunks > 0
        assert report.bytes_uploaded > 0
        assert not report.unchanged
        assert report.node.name == "f.bin"
        assert report.node.size == 5000

    def test_node_lineage(self, client):
        r1 = client.put("f.bin", deterministic_bytes(2000, 1))
        r2 = client.put("f.bin", deterministic_bytes(2000, 2))
        assert r1.node.prev_id == ROOT_ID
        assert r2.node.prev_id == r1.node.node_id

    def test_content_id_is_the_put_file_id(self, client):
        v0 = deterministic_bytes(16_000, 12)
        v1 = v0[:4_000] + deterministic_bytes(64, 13) + v0[4_064:]
        v2 = v1[:9_000] + deterministic_bytes(64, 14) + v1[9_064:]
        assert client.content_id(v0) == client.put("f.bin", v0).node.file_id
        client.put("f.bin", v1)  # an edit: the cache now holds v1's chunks
        assert client.chunk_cache.spans()
        assert client.content_id(v2) == client.put("f.bin", v2).node.file_id

    def test_unchanged_upload_is_noop(self, client):
        data = deterministic_bytes(3000, 3)
        r1 = client.put("f.bin", data)
        r2 = client.put("f.bin", data)
        assert r2.unchanged
        assert r2.bytes_uploaded == 0
        assert r2.node.node_id == r1.node.node_id

    def test_chunk_records_cover_file(self, client):
        data = deterministic_bytes(9000, 4)
        node = client.put("f.bin", data).node
        covered = sorted((c.offset, c.size) for c in node.chunks)
        pos = 0
        for offset, size in covered:
            assert offset == pos
            pos += size
        assert pos == 9000

    def test_share_records_reference_active_csps(self, client, csps):
        node = client.put("f.bin", deterministic_bytes(4000, 5)).node
        ids = {c.csp_id for c in csps}
        assert {s.csp_id for s in node.shares} <= ids

    def test_n_shares_per_chunk(self, client, config):
        node = client.put("f.bin", deterministic_bytes(4000, 6)).node
        for record in node.chunks:
            assert len(node.shares_of(record.chunk_id)) == config.n

    def test_shares_stored_under_hash_names(self, client, csps):
        node = client.put("f.bin", deterministic_bytes(2000, 7)).node
        share = node.shares[0]
        name = chunk_share_object_name(share.index, share.chunk_id)
        provider = next(c for c in csps if c.csp_id == share.csp_id)
        provider.download(name)  # must exist

    def test_empty_file(self, client):
        report = client.put("empty.txt", b"")
        assert report.node.size == 0
        assert client.get("empty.txt").data == b""


class TestDedup:
    def test_identical_content_under_new_name(self, client):
        data = deterministic_bytes(6000, 8)
        client.put("a.bin", data)
        report = client.put("b.bin", data)
        assert report.new_chunks == 0
        assert report.dedup_chunks > 0

    def test_partial_overlap(self, client):
        data = deterministic_bytes(20000, 9)
        client.put("a.bin", data)
        edited = data[:5000] + b"PATCH" + data[5000:]
        report = client.put("a.bin", edited)
        assert report.dedup_chunks > 0
        assert report.new_chunks >= 1

    def test_dedup_reduces_stored_bytes(self, csps, config):
        from repro.core.client import CyrusClient

        client = CyrusClient.create(csps, config, client_id="a")
        data = deterministic_bytes(8000, 10)
        def share_objects():
            return {
                (c.csp_id, info.name) for c in csps for info in c.list(prefix="")
                if len(info.name) == 40
            }

        client.put("one.bin", data)
        before = sum(c.stored_bytes for c in csps)
        shares_before = share_objects()
        client.put("two.bin", data)
        after = sum(c.stored_bytes for c in csps)
        # only new metadata is stored for the duplicate file (a node
        # carrying n per-share fingerprints per chunk); re-storing the
        # chunk shares would have added >= size * n/t = 12000 bytes
        assert after - before < 12000
        assert share_objects() == shares_before  # not one new share

    def test_repeated_chunk_within_file(self, client):
        # same span twice: the second occurrence must dedup
        block = deterministic_bytes(4096, 11)
        report = client.put("rep.bin", block + block)
        assert report.dedup_chunks >= 1
        assert client.get("rep.bin").data == block + block


class TestFailureHandling:
    def test_upload_retries_on_failed_csp(self, csps, config):
        from repro.core.client import CyrusClient
        from repro.csp import InMemoryCSP
        from repro.errors import CSPUnavailableError

        class FlakyCSP(InMemoryCSP):
            def upload(self, name, data):
                raise CSPUnavailableError("always down", csp_id=self.csp_id)

        providers = [InMemoryCSP("ok0"), InMemoryCSP("ok1"),
                     InMemoryCSP("ok2"), FlakyCSP("bad")]
        client = CyrusClient.create(providers, config, client_id="a")
        data = deterministic_bytes(5000, 12)
        report = client.put("f.bin", data)
        # the bad CSP's breaker tripped and shares landed elsewhere
        assert client.health.dark("bad")
        assert {s.csp_id for s in report.node.shares} <= {"ok0", "ok1", "ok2"}
        assert client.get("f.bin").data == data

    def test_upload_fails_below_t_shares(self, config):
        from repro.core.client import CyrusClient
        from repro.csp import InMemoryCSP
        from repro.errors import CSPUnavailableError

        class DeadCSP(InMemoryCSP):
            def upload(self, name, data):
                raise CSPUnavailableError("dead", csp_id=self.csp_id)

        providers = [InMemoryCSP("ok"), DeadCSP("d1"), DeadCSP("d2")]
        client = CyrusClient.create(providers, config, client_id="a")
        with pytest.raises(TransferError):
            client.put("f.bin", deterministic_bytes(3000, 13))

    def test_degraded_chunk_reported(self, config):
        from repro.core.client import CyrusClient
        from repro.csp import InMemoryCSP
        from repro.errors import CSPUnavailableError

        class DeadCSP(InMemoryCSP):
            def upload(self, name, data):
                raise CSPUnavailableError("dead", csp_id=self.csp_id)

        # n=3 but only 2 CSPs can store: t=2 reached, n missed
        providers = [InMemoryCSP("ok0"), InMemoryCSP("ok1"), DeadCSP("d")]
        client = CyrusClient.create(providers, config, client_id="a")
        report = client.put("f.bin", deterministic_bytes(3000, 14))
        assert report.degraded_chunks
        assert client.get("f.bin").data == deterministic_bytes(3000, 14)


class TestTombstones:
    def test_delete_creates_tombstone(self, client):
        client.put("f.bin", deterministic_bytes(1000, 15))
        report = client.delete("f.bin")
        assert report.node.deleted
        assert "f.bin" not in [e.name for e in client.list_files()]

    def test_tombstone_keeps_chunks(self, client, csps):
        data = deterministic_bytes(3000, 16)
        client.put("f.bin", data)
        before = sum(c.stored_bytes for c in csps)
        client.delete("f.bin")
        after = sum(c.stored_bytes for c in csps)
        assert after >= before  # shares untouched; only metadata added

    def test_delete_then_reupload_chains_history(self, client):
        client.put("f.bin", deterministic_bytes(1000, 17))
        client.delete("f.bin")
        client.put("f.bin", deterministic_bytes(1000, 18))
        assert len(client.history("f.bin")) == 3
