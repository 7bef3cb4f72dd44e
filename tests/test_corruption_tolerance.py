"""Tests for corrupted-share tolerance (paper Section 5.1's claim that
R-S goes beyond secret sharing: errors in fetched shares are survivable
while a clean t-subset exists)."""

import dataclasses
import os

import pytest

from repro.core.naming import chunk_share_object_name
from repro.core.transfer import OpKind
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
    """A share one byte short fails its decode, so the downloader
    repairs the chunk from another holder and blames the provider that
    served it by its recorded digest, exactly as for a flipped byte."""

    DATA = deterministic_bytes(6000, 5)

    @pytest.fixture
    def truncate(self, client, csps):
        node = client.put("f.bin", self.DATA).node

        def cut(index: int) -> tuple[str, str]:
            chunk_id = node.chunks[0].chunk_id
            share = next(s for s in node.shares_of(chunk_id)
                         if s.index == index)
            name = chunk_share_object_name(index, chunk_id)
            provider = next(c for c in csps if c.csp_id == share.csp_id)
            provider.upload(name, provider.download(name)[:-1])
            return name, share.csp_id

        return cut

    @staticmethod
    def assert_attributed(client, report, name: str, csp: str) -> None:
        blamed = client.obs.snapshot().counter_by(
            "cyrus_corrupt_shares_total", "csp")
        fetched = {r.op.name for r in report.share_results}
        assert blamed == ({csp: 1} if name in fetched else {})

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_get_repairs_a_truncated_share(self, client, truncate, victim):
        name, csp = truncate(victim)
        report = client.get("f.bin")
        assert report.data == self.DATA
        self.assert_attributed(client, report, name, csp)

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_range_read_repairs_a_truncated_share(self, client, truncate,
                                                  victim):
        name, csp = truncate(victim)
        report = client.get_range("f.bin", 10, 100)
        assert report.data == self.DATA[10:110]
        self.assert_attributed(client, report, name, csp)


class TestRepairPastAWrongDigest:
    """A node whose recorded digest vouches for a tampered share lets
    the gather accept that share; only the chunk-id check after decode
    catches it, and the t-subset repair must recover the chunk."""

    DATA = deterministic_bytes(6000, 6)

    @pytest.fixture
    def lie(self, client, csps, monkeypatch):
        node = client.put("f.bin", self.DATA).node
        record = node.chunks[0]

        def forge(read) -> str:
            # tamper a share this kind of read is known to gather
            fetched = {r.op.name for r in read().share_results}
            victim = next(
                s for s in node.shares_of(record.chunk_id)
                if chunk_share_object_name(s.index, s.chunk_id) in fetched
            )
            name = chunk_share_object_name(victim.index, record.chunk_id)
            provider = next(c for c in csps if c.csp_id == victim.csp_id)
            blob = bytearray(provider.download(name))
            blob[0] ^= 0xFF
            provider.upload(name, bytes(blob))
            digests = list(record.share_digests)
            digests[victim.index] = sha1_hex(bytes(blob))
            lying = dataclasses.replace(node, chunks=(
                dataclasses.replace(record, share_digests=tuple(digests)),
                *node.chunks[1:],
            ))
            monkeypatch.setattr(client.tree, "version_at_depth",
                                lambda *_args, **_kw: lying)
            return name

        return forge

    @staticmethod
    def assert_repaired(client, read, lie, expected: bytes) -> None:
        def repairs() -> float:
            return client.obs.snapshot().counter_total(
                "cyrus_chunk_repairs_total")

        name = lie(read)
        before = repairs()
        report = read()
        assert name in {r.op.name for r in report.share_results}
        assert report.data == expected
        assert repairs() == before + 1

    def test_get_repairs_the_chunk(self, client, lie):
        self.assert_repaired(
            client, lambda: client.get("f.bin", sync_first=False), lie,
            self.DATA)

    def test_range_read_repairs_the_chunk(self, client, lie):
        self.assert_repaired(
            client,
            lambda: client.get_range("f.bin", 10, 100, sync_first=False),
            lie, self.DATA[10:110])

    @pytest.mark.parametrize("ranged", [False, True], ids=["get", "get_range"])
    def test_report_lists_the_repair_traffic(self, client, lie, monkeypatch,
                                             ranged):
        # every share GET the engine ran, the repair's included, is in
        # the report, and every one that delivered bytes is downloaded
        def read():
            if ranged:
                return client.get_range("f.bin", 10, 100, sync_first=False)
            return client.get("f.bin", sync_first=False)

        lie(read)
        ran = []
        execute = client.engine.execute

        def spy(ops, *args, **kwargs):
            results = execute(ops, *args, **kwargs)
            ran.extend(r for r in results if r.op.kind is OpKind.GET)
            return results

        monkeypatch.setattr(client.engine, "execute", spy)
        report = read()
        listed = [r for r in report.share_results if r.op.kind is OpKind.GET]
        assert sorted(id(r) for r in listed) == sorted(id(r) for r in ran)
        assert report.bytes_downloaded == sum(
            len(r.data) for r in ran if r.ok)


class TestRepairFetchLastResort:
    """The repair's fetch follows the gather's failover rule: a holder
    quarantined for corruption is forced as a last resort, a breaker
    opened for unavailability never is."""

    DATA = deterministic_bytes(100, 7)  # one chunk

    @pytest.fixture
    def read_past(self, client, csps, monkeypatch):
        node = client.put("f.bin", self.DATA).node
        fetched = {r.op.csp_id: r.op.name
                   for r in client.get("f.bin").share_results}
        liar, name = sorted(fetched.items())[0]
        provider = {c.csp_id: c for c in csps}
        blob = bytearray(provider[liar].download(name))
        blob[0] ^= 0xFF
        provider[liar].upload(name, bytes(blob))
        [third] = [s.csp_id for s in node.shares if s.csp_id not in fetched]
        downloads = []
        download = provider[third].download
        monkeypatch.setattr(provider[third], "download",
                            lambda name: downloads.append(name)
                            or download(name))

        def read(darken):
            # the third holder goes dark once the gather is done, so
            # only the repair can reach for it
            gather = client.downloader._gather

            def gather_then_darken(*args):
                results = gather(*args)
                darken(third)
                return results

            monkeypatch.setattr(client.downloader, "_gather",
                                gather_then_darken)
            return client.get("f.bin")

        return read, downloads

    def test_a_corruption_suspect_is_forced(self, client, read_past):
        read, downloads = read_past

        def quarantine(csp):
            for _ in range(client.health.corruption_threshold):
                client.health.record_corruption(csp)

        assert read(quarantine).data == self.DATA
        assert len(downloads) == 1

    def test_an_unavailable_holder_is_never_forced(self, client, read_past):
        read, downloads = read_past
        with pytest.raises(CyrusError):
            read(lambda csp: client.health.breaker(csp).trip())
        assert downloads == []
