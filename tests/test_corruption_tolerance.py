"""Tests for corrupted-share tolerance (paper Section 5.1's claim that
R-S goes beyond secret sharing: errors in fetched shares are survivable
while a clean t-subset exists)."""

import os

import pytest

from repro.core.naming import chunk_share_object_name
from repro.erasure import KeyedSharer, RSCodec, Share
from repro.errors import CodingError, CyrusError, InsufficientSharesError
from repro.util.hashing import sha1_hex
from tests.conftest import deterministic_bytes


def corrupt(share: Share) -> Share:
    blob = bytearray(share.data)
    blob[0] ^= 0xFF
    return Share(index=share.index, data=bytes(blob), t=share.t, n=share.n,
                 chunk_size=share.chunk_size)


class TestDecodeVerified:
    def test_clean_shares_pass_through(self):
        data = os.urandom(2000)
        codec = RSCodec(2, 4)
        shares = codec.encode(data)
        digest = sha1_hex(data)
        got = codec.decode_verified(
            shares, verify=lambda b: sha1_hex(b) == digest
        )
        assert got == data

    def test_tolerates_n_minus_t_corruptions(self):
        data = os.urandom(3000)
        codec = RSCodec(2, 4)
        shares = codec.encode(data)
        digest = sha1_hex(data)
        # corrupt 2 of 4 (= n - t): a clean pair still exists
        tampered = [corrupt(shares[0]), shares[1], corrupt(shares[2]),
                    shares[3]]
        got = codec.decode_verified(
            tampered, verify=lambda b: sha1_hex(b) == digest
        )
        assert got == data

    def test_fails_beyond_tolerance(self):
        data = os.urandom(1000)
        codec = RSCodec(2, 4)
        shares = codec.encode(data)
        digest = sha1_hex(data)
        tampered = [corrupt(s) for s in shares[:3]] + [shares[3]]
        with pytest.raises(CodingError):
            codec.decode_verified(
                tampered, verify=lambda b: sha1_hex(b) == digest
            )

    def test_too_few_shares(self):
        codec = RSCodec(3, 5)
        shares = codec.encode(b"payload")
        with pytest.raises(InsufficientSharesError):
            codec.decode_verified(shares[:2], verify=lambda b: True)

    def test_keyed_sharer_wrapper(self):
        sharer = KeyedSharer("key", 2, 4)
        data = os.urandom(1500)
        shares = sharer.split(data)
        digest = sha1_hex(data)
        tampered = [corrupt(shares[0])] + shares[1:]
        got = sharer.join_verified(
            tampered, verify=lambda b: sha1_hex(b) == digest
        )
        assert got == data


class TestDownloadRepair:
    def _corrupt_share_at(self, client, csps, node, chunk_id, which=0):
        share = node.shares_of(chunk_id)[which]
        name = chunk_share_object_name(share.index, share.chunk_id)
        provider = next(c for c in csps if c.csp_id == share.csp_id)
        blob = bytearray(provider.download(name))
        blob[len(blob) // 2] ^= 0xA5
        provider.upload(name, bytes(blob))

    def test_single_corrupt_share_transparent(self, client, csps):
        data = deterministic_bytes(6000, 1)
        node = client.put("f.bin", data).node
        self._corrupt_share_at(client, csps, node, node.chunks[0].chunk_id)
        report = client.get("f.bin")
        assert report.data == data  # repaired without user intervention

    def test_corruption_on_every_chunk(self, client, csps):
        data = deterministic_bytes(20_000, 2)
        node = client.put("big.bin", data).node
        for record in node.chunks:
            self._corrupt_share_at(client, csps, node, record.chunk_id)
        assert client.get("big.bin").data == data

    def test_total_corruption_raises(self, client, csps):
        data = deterministic_bytes(4000, 3)
        node = client.put("f.bin", data).node
        target = node.chunks[0].chunk_id
        for which in range(len(node.shares_of(target))):
            self._corrupt_share_at(client, csps, node, target, which)
        with pytest.raises(CyrusError):
            client.get("f.bin")

    def test_repair_counts_extra_downloads(self, client, csps):
        data = deterministic_bytes(5000, 4)
        node = client.put("f.bin", data).node
        clean = client.get("f.bin")
        self._corrupt_share_at(client, csps, node, node.chunks[0].chunk_id)
        repaired = client.get("f.bin")
        assert repaired.data == data
        # the repair fetched at least one additional share
        assert len(repaired.share_results) >= len(clean.share_results)


class TestWrongLengthShare:
    """A share one byte short fails the codec's length check, not the
    chunk hash.  On a chunk recorded without share digests (the
    pre-fingerprint record shape, still honoured) nothing catches it
    before decode, so the downloader must repair it like any other
    lying share rather than surface the ``CodingError``."""

    DATA = deterministic_bytes(6000, 5)

    @pytest.fixture
    def truncate(self, client, csps, monkeypatch):
        from repro.core.uploader import _ChunkPlan

        monkeypatch.setattr(_ChunkPlan, "share_digests",
                            lambda self, key, obs=None: ())
        node = client.put("f.bin", self.DATA).node
        assert not node.chunks[0].share_digests

        def cut(index: int) -> None:
            chunk_id = node.chunks[0].chunk_id
            share = next(s for s in node.shares_of(chunk_id)
                         if s.index == index)
            name = chunk_share_object_name(index, chunk_id)
            provider = next(c for c in csps if c.csp_id == share.csp_id)
            provider.upload(name, provider.download(name)[:-1])

        return cut

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_get_repairs_a_truncated_share(self, client, truncate, victim):
        truncate(victim)
        assert client.get("f.bin").data == self.DATA

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_range_read_repairs_a_truncated_share(self, client, truncate,
                                                  victim):
        truncate(victim)
        assert client.get_range("f.bin", 10, 100).data == self.DATA[10:110]
