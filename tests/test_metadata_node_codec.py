"""The binary metadata-node codec and the tree snapshot fail closed.

Every node the client stores — in the metadata slots, in a meta-repair
intent and in the local tree snapshot — is :func:`encode_node`'s bytes,
and :func:`decode_node` and :func:`load_snapshot` read bytes that a
provider or a damaged disk handed back.  So a decoder either raises
:class:`MetadataError` or returns what re-encodes to exactly its input:
checked here case by case, against a committed golden encoding, and as
hypothesis properties over byte flips, truncations and extensions of
valid encodings.  The ``slow`` variants run the same properties with a
larger example budget.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import MetadataError
from repro.metadata import codec
from repro.metadata.codec import CODEC_VERSION, decode_node, encode_node
from repro.metadata.node import ROOT_ID, ChunkRecord, MetadataNode, ShareRecord
from repro.metadata.snapshot import dump_snapshot, load_snapshot
from repro.util.hashing import sha1_hex

GOLDEN = Path(__file__).parent / "data" / "golden_node.hex"

FID = bytes.fromhex(sha1_hex(b"file"))
CID = bytes.fromhex(sha1_hex(b"chunk"))
DIGESTS = b"".join(bytes.fromhex(sha1_hex(b"share%d" % i)) for i in range(3))


def forge(*, version=CODEC_VERSION, flags=0, modified=1.0, size=5,
          name=b"f", client=b"c1", csps=(b"a", b"b"),
          chunks=((CID, 0, 5, 2, 3),), digests=DIGESTS,
          shares=((0, 0, 0), (0, 1, 1)), counts=None) -> bytes:
    """Node bytes laid out field by field, to build what the encoder
    never writes."""
    n_csps, n_chunks, n_shares = counts or (len(csps), len(chunks),
                                            len(shares))
    return b"".join([
        codec._NODE_HEAD.pack(version, flags, FID, bytes(20), modified,
                              size, len(name), len(client), n_csps,
                              n_chunks, n_shares),
        name, client,
        *(bytes((len(c),)) + c for c in csps),
        *(codec._CHUNK_ROW.pack(*row) for row in chunks),
        digests,
        *(codec._SHARE_ROW.pack(*row) for row in shares),
    ])


def golden_node() -> MetadataNode:
    """Three chunks, the first and last of the same content, shares on
    three CSPs listed out of name order, a non-ASCII name."""
    a, b = sha1_hex(b"chunk-a"), sha1_hex(b"chunk-b")

    def digests(cid):
        return tuple(sha1_hex(f"{cid}/{i}".encode()) for i in range(3))

    return MetadataNode(
        file_id=sha1_hex(b"golden file"), prev_id=sha1_hex(b"golden prev"),
        client_id="laptop", name="Präsentation/日本.txt", deleted=False,
        modified=1_700_000_000.25, size=3000,
        chunks=(ChunkRecord(a, 0, 1000, 2, 3, digests(a)),
                ChunkRecord(b, 1000, 1000, 2, 3, digests(b)),
                ChunkRecord(a, 2000, 1000, 2, 3, digests(a))),
        shares=(ShareRecord(a, 0, "gdrive"), ShareRecord(a, 1, "box"),
                ShareRecord(b, 2, "box"), ShareRecord(b, 0, "dropbox")),
    )


class TestGolden:
    def test_encoding_is_the_committed_one(self):
        """A change of the node format is a reviewed diff of this file."""
        assert encode_node(golden_node()).hex() == GOLDEN.read_text().strip()

    def test_golden_decodes_to_the_node(self):
        assert decode_node(bytes.fromhex(GOLDEN.read_text())) == golden_node()

    def test_node_id_is_not_the_encoding(self):
        """Identity hashes the four lineage fields, not the node bytes:
        this id is the one the JSON-coded node had, so the format change
        moved no node id, journal record or share name."""
        assert golden_node().node_id == (
            "92eaebc212399daaf1a1054cdbc0153adbb42ae0")


class TestDecoderRefuses:
    def test_forge_builds_a_valid_node(self):
        blob = forge()
        assert encode_node(decode_node(blob)) == blob

    @pytest.mark.parametrize("fields", [
        {"version": 1}, {"version": 3},
        {"flags": 2}, {"flags": 0x81},
        {"modified": math.nan}, {"modified": math.inf},
        {"modified": -math.inf},
    ])
    def test_bad_header_fields(self, fields):
        with pytest.raises(MetadataError):
            decode_node(forge(**fields))

    def test_every_truncation(self):
        blob = encode_node(golden_node())
        for cut in range(len(blob)):
            with pytest.raises(MetadataError):
                decode_node(blob[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(MetadataError, match="trailing"):
            decode_node(forge() + b"\x00")

    def test_huge_counts_are_bounded_before_slicing(self):
        for counts in [(255, 1, 2), (2, 2**32 - 1, 2), (2, 1, 2**32 - 1)]:
            with pytest.raises(MetadataError):
                decode_node(forge(counts=counts))

    @pytest.mark.parametrize("fields", [
        {"name": b"\xff"}, {"client": b"\xc3"}, {"csps": (b"a", b"\xed\xa0\x80")},
    ])
    def test_invalid_utf8(self, fields):
        with pytest.raises(MetadataError):
            decode_node(forge(**fields))

    def test_empty_name(self):
        with pytest.raises(MetadataError):
            decode_node(forge(name=b""))

    @pytest.mark.parametrize("csps, shares", [
        ((b"a", b"b"), ((0, 0, 0), (0, 1, 2))),  # slot out of range
        ((b"a", b"b"), ((0, 0, 1), (0, 1, 0))),  # slot before first use
        ((b"a", b"b", b"c"), ((0, 0, 0), (0, 1, 1))),  # unused entry
        ((b"a", b"a"), ((0, 0, 0), (0, 1, 1))),  # duplicate id
        ((b"a", b""), ((0, 0, 0), (0, 1, 1))),  # empty id
    ])
    def test_non_canonical_csp_table(self, csps, shares):
        with pytest.raises(MetadataError):
            decode_node(forge(csps=csps, shares=shares))

    def test_chunk_row_out_of_range(self):
        with pytest.raises(MetadataError, match="chunk row"):
            decode_node(forge(shares=((1, 0, 0), (0, 1, 1))))

    def test_share_row_naming_a_repeated_chunk(self):
        """Two rows of one chunk id: a share names the first, as the
        encoder writes it, never the second."""
        rows = ((CID, 0, 5, 2, 3), (CID, 5, 5, 2, 3))
        ok = forge(size=10, chunks=rows, digests=DIGESTS * 2)
        assert encode_node(decode_node(ok)) == ok
        with pytest.raises(MetadataError, match="repeated"):
            decode_node(forge(size=10, chunks=rows, digests=DIGESTS * 2,
                              shares=((1, 0, 0), (0, 1, 1))))

    @pytest.mark.parametrize("row", [
        (CID, 0, 5, 0, 3),  # t = 0
        (CID, 0, 5, 4, 3),  # t > n
    ])
    def test_what_the_node_model_refuses(self, row):
        with pytest.raises(MetadataError):
            decode_node(forge(chunks=(row,)))


class TestEncoderRefuses:
    def node(self, **fields) -> MetadataNode:
        cid = sha1_hex(b"chunk")
        base = dict(
            file_id=sha1_hex(b"file"), prev_id=ROOT_ID, client_id="c1",
            name="f", deleted=False, modified=1.0, size=5,
            chunks=(ChunkRecord(cid, 0, 5, 2, 3,
                                tuple(sha1_hex(b"%d" % i) for i in range(3))),),
            shares=(ShareRecord(cid, 0, "a"),),
        )
        base.update(fields)
        return MetadataNode(**base)

    def chunk(self, **fields) -> ChunkRecord:
        base = dict(chunk_id=sha1_hex(b"chunk"), offset=0, size=5, t=2, n=3,
                    share_digests=tuple(sha1_hex(b"%d" % i) for i in range(3)))
        base.update(fields)
        return ChunkRecord(**base)

    def test_the_base_node_encodes(self):
        assert decode_node(encode_node(self.node())) == self.node()

    @pytest.mark.parametrize("node_fields", [
        {"file_id": sha1_hex(b"file").upper()},
        {"prev_id": "g" * 40},
        {"modified": math.inf},
        {"modified": math.nan},
        {"name": "x" * 65536},
        {"name": "\ud800"},
    ])
    def test_node_fields(self, node_fields):
        with pytest.raises(MetadataError):
            encode_node(self.node(**node_fields))

    @pytest.mark.parametrize("chunk_fields", [
        {"chunk_id": "ab" * 19 + "a"},  # 39 chars ...
        {"share_digests": ("a" * 39, "b" * 41, "c" * 40)},  # ... misaligned
        {"share_digests": ("A" * 40, "b" * 40, "c" * 40)},
        {"size": 2**32},
        {"offset": 2**64},
    ])
    def test_chunk_fields(self, chunk_fields):
        chunk = self.chunk(**chunk_fields)
        node = self.node(chunks=(chunk,),
                         shares=(ShareRecord(chunk.chunk_id, 0, "a"),))
        with pytest.raises(MetadataError):
            encode_node(node)

    def test_wide_n(self):
        chunk = self.chunk(n=256, share_digests=(sha1_hex(b""),) * 256)
        with pytest.raises(MetadataError):
            encode_node(self.node(chunks=(chunk,), shares=()))

    @pytest.mark.parametrize("csp_id", ["", "c" * 256])
    def test_csp_ids(self, csp_id):
        cid = sha1_hex(b"chunk")
        with pytest.raises(MetadataError):
            encode_node(self.node(shares=(ShareRecord(cid, 0, csp_id),)))


class TestSnapshotRefuses:
    def test_bad_version(self):
        blob = bytearray(dump_snapshot([golden_node()]))
        blob[4] = 99  # after the magic
        with pytest.raises(MetadataError, match="version"):
            load_snapshot(bytes(blob))

    def test_every_truncation(self):
        blob = dump_snapshot([golden_node()])
        for cut in range(len(blob)):
            with pytest.raises(MetadataError):
                load_snapshot(blob[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(MetadataError, match="trailing"):
            load_snapshot(dump_snapshot([golden_node()]) + b"\x00")

    def test_nodes_out_of_order_or_repeated(self):
        node = golden_node()
        blobs = sorted([encode_node(node), encode_node(self.other())])
        for order in ([blobs[1], blobs[0]], [blobs[0], blobs[0]]):
            forged = struct.pack(">4sBI", b"CYTS", 2, 2) + b"".join(
                struct.pack(">I", len(b)) + b for b in order)
            with pytest.raises(MetadataError, match="order"):
                load_snapshot(forged)

    def test_huge_count_is_bounded(self):
        with pytest.raises(MetadataError):
            load_snapshot(struct.pack(">4sBI", b"CYTS", 2, 2**32 - 1))

    def test_a_node_that_does_not_decode(self):
        with pytest.raises(MetadataError):
            load_snapshot(struct.pack(">4sBII", b"CYTS", 2, 1, 3) + b"abc")

    @staticmethod
    def other() -> MetadataNode:
        return MetadataNode(file_id=sha1_hex(b"x"), prev_id=ROOT_ID,
                            client_id="c", name="x", deleted=True,
                            modified=2.0, size=0)


def test_slots_intent_and_snapshot_hold_the_same_bytes(tmp_path):
    """A node's metadata slots, its meta-repair intent (as hex) and the
    tree snapshot all carry :func:`encode_node`'s bytes."""
    from repro.core.client import CyrusClient
    from repro.core.config import CyrusConfig
    from repro.csp.memory import InMemoryCSP
    from repro.metadata.codec import metadata_share_name, unpack_meta_share
    from repro.recovery import IntentJournal
    from tests.conftest import SMALL_CHUNKS, deterministic_bytes

    providers = [InMemoryCSP(f"csp{i}") for i in range(3)]
    client = CyrusClient.create(
        providers, CyrusConfig(key="codec-key", t=2, n=3, **SMALL_CHUNKS),
        client_id="alice",
        journal=IntentJournal(tmp_path / "journal.jsonl", fsync=False))
    client.put("f.bin", deterministic_bytes(3000, seed=1))
    [node] = list(client.tree)
    blob = encode_node(node)

    frames = [unpack_meta_share(p.download(
        metadata_share_name(node.node_id, index)))
        for index, p in enumerate(providers)]
    assert {f.node_digest for f in frames} == {sha1_hex(blob)}
    assert client.store._sharer.join([
        f.to_share(index, 2, 3) for index, f in enumerate(frames)][:2]) == blob

    client.add_csp(InMemoryCSP("csp3"))  # back-fills the new slot
    [repair] = [i for i in client.journal.intents() if i.op == "meta-repair"]
    assert repair.records[0].fields["node"] == blob.hex()

    assert dump_snapshot([node]) == (
        struct.pack(">4sBII", b"CYTS", 2, 1, len(blob)) + blob)


# -- properties -----------------------------------------------------------

_text = st.characters(blacklist_categories=("Cs",))
_hex_ids = st.binary(min_size=20, max_size=20).map(bytes.hex)


@st.composite
def nodes(draw, tiling: bool = True) -> MetadataNode:
    """A node the encoder accepts; with ``tiling`` its ChunkMap tiles
    ``[0, size)`` in order (what the decoder accepts), else offsets,
    chunk sizes and the file size are drawn freely."""
    contents = []  # (chunk id, t, n, digests): a repeated chunk agrees
    for chunk_id in draw(st.lists(_hex_ids, min_size=1, max_size=3,
                                  unique=True)):
        n = draw(st.integers(1, 6))
        contents.append((chunk_id, draw(st.integers(1, n)), n, tuple(
            draw(st.lists(_hex_ids, min_size=n, max_size=n)))))
    csp_ids = draw(st.lists(st.text(_text, min_size=1, max_size=6),
                            min_size=1, max_size=4))
    chunks, end = [], 0
    for _ in range(draw(st.integers(0, 4))):
        chunk_id, t, n, digests = draw(st.sampled_from(contents))
        offset = end if tiling else draw(st.integers(0, 2**64 - 1))
        size = draw(st.integers(1 if tiling else 0, 2**32 - 1))
        chunks.append(ChunkRecord(
            chunk_id=chunk_id, offset=offset, size=size, t=t, n=n,
            share_digests=digests,
        ))
        end += size
    shares = []
    if chunks:
        for _ in range(draw(st.integers(0, 6))):
            chunk = draw(st.sampled_from(chunks))
            shares.append(ShareRecord(chunk.chunk_id,
                                      draw(st.integers(0, chunk.n - 1)),
                                      draw(st.sampled_from(csp_ids))))
    return MetadataNode(
        file_id=draw(_hex_ids), prev_id=draw(_hex_ids),
        client_id=draw(st.text(_text, max_size=8)),
        name=draw(st.text(_text, min_size=1, max_size=12)),
        deleted=draw(st.booleans()),
        modified=draw(st.floats(allow_nan=False, allow_infinity=False)),
        size=end if tiling else draw(st.integers(0, 2**64 - 1)),
        chunks=tuple(chunks), shares=tuple(shares),
    )


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """One byte flip, one truncation or one extension of ``blob``."""
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        bit = draw(st.integers(1, 255))
        return blob[:at] + bytes((blob[at] ^ bit,)) + blob[at + 1:]
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    return blob + draw(st.binary(min_size=1, max_size=24))


def _node_fails_closed(node: MetadataNode, data) -> None:
    blob = encode_node(node)
    assert decode_node(blob) == node
    mutated = data.draw(mutations(blob))
    try:
        got = decode_node(mutated)
    except MetadataError:
        return
    assert encode_node(got) == mutated


def _snapshot_fails_closed(node_list: list[MetadataNode], data) -> None:
    blob = dump_snapshot(node_list)
    assert {n.node_id for n in load_snapshot(blob)} == {
        n.node_id for n in node_list}
    mutated = data.draw(mutations(blob))
    try:
        got = load_snapshot(mutated)
    except MetadataError:
        return
    assert dump_snapshot(got) == mutated


TIER1 = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
WIDE = settings(max_examples=600, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@TIER1
@given(node=nodes(), data=st.data())
def test_node_mutations_fail_closed(node, data):
    _node_fails_closed(node, data)


@TIER1
@given(node_list=st.lists(nodes(), max_size=3), data=st.data())
def test_snapshot_mutations_fail_closed(node_list, data):
    _snapshot_fails_closed(node_list, data)


def _tiles(node: MetadataNode) -> bool:
    end = 0
    for chunk in node.chunks:
        if chunk.offset != end or not chunk.size:
            return False
        end += chunk.size
    return end == node.size


@TIER1
@given(node=nodes(tiling=False))
def test_decode_refuses_a_chunk_map_that_does_not_tile(node):
    assume(not _tiles(node))
    try:
        blob = encode_node(node)
    except MetadataError:
        assume(False)  # only what the encoder accepts
    with pytest.raises(MetadataError):
        decode_node(blob)


@pytest.mark.slow
@WIDE
@given(node=nodes(), data=st.data())
def test_node_mutations_fail_closed_wide(node, data):
    _node_fails_closed(node, data)


@pytest.mark.slow
@WIDE
@given(node_list=st.lists(nodes(), max_size=3), data=st.data())
def test_snapshot_mutations_fail_closed_wide(node_list, data):
    _snapshot_fails_closed(node_list, data)
