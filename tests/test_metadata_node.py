"""Unit tests for metadata nodes and their records."""

import pytest

from repro.metadata import ChunkRecord, MetadataNode, ROOT_ID, ShareRecord
from repro.util.hashing import sha1_hex

FID = sha1_hex(b"content-v1")
CID = sha1_hex(b"chunk-1")
DIGESTS = tuple(sha1_hex(b"share%d" % i) for i in range(3))


def node(**overrides):
    base = dict(
        file_id=FID,
        prev_id=ROOT_ID,
        client_id="alice",
        name="doc.txt",
        deleted=False,
        modified=1.0,
        size=10,
        chunks=(ChunkRecord(chunk_id=CID, offset=0, size=10, t=2, n=3,
                            share_digests=DIGESTS),),
        shares=tuple(
            ShareRecord(chunk_id=CID, index=i, csp_id=f"csp{i}")
            for i in range(3)
        ),
    )
    base.update(overrides)
    return MetadataNode(**base)


class TestIdentity:
    def test_node_id_deterministic(self):
        assert node().node_id == node().node_id

    def test_id_covers_lineage_fields(self):
        base = node()
        assert node(name="other.txt").node_id != base.node_id
        assert node(client_id="bob").node_id != base.node_id
        assert node(file_id=sha1_hex(b"v2")).node_id != base.node_id
        assert node(prev_id=sha1_hex(b"parent")).node_id != base.node_id

    def test_id_ignores_share_placements(self):
        # lazy migration republishes with new ShareMap under the same id
        a = node()
        b = node(shares=(ShareRecord(chunk_id=CID, index=0, csp_id="x"),))
        assert a.node_id == b.node_id

    def test_is_new_file(self):
        assert node().is_new_file
        assert not node(prev_id=sha1_hex(b"p")).is_new_file


class TestValidation:
    def test_bad_file_id(self):
        with pytest.raises(ValueError):
            node(file_id="short")

    def test_bad_prev_id(self):
        with pytest.raises(ValueError):
            node(prev_id="xyz")

    def test_empty_name(self):
        with pytest.raises(ValueError):
            node(name="")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            node(size=-1)

    def test_share_must_reference_known_chunk(self):
        with pytest.raises(ValueError):
            node(shares=(ShareRecord(chunk_id=sha1_hex(b"other"), index=0,
                                     csp_id="c"),))

    def test_share_index_must_be_below_n(self):
        node(shares=(ShareRecord(chunk_id=CID, index=2, csp_id="c"),))
        with pytest.raises(ValueError, match="out of range"):
            node(shares=(ShareRecord(chunk_id=CID, index=3, csp_id="c"),))

    def test_chunk_record_validation(self):
        with pytest.raises(ValueError):
            ChunkRecord(chunk_id=CID, offset=-1, size=1, t=2, n=3,
                        share_digests=DIGESTS)
        with pytest.raises(ValueError):
            ChunkRecord(chunk_id=CID, offset=0, size=1, t=4, n=3,
                        share_digests=DIGESTS)

    def test_chunk_record_needs_n_digests(self):
        with pytest.raises(TypeError):
            ChunkRecord(chunk_id=CID, offset=0, size=1, t=2, n=3)
        for digests in ((), DIGESTS[:2], DIGESTS + DIGESTS[:1]):
            with pytest.raises(ValueError):
                ChunkRecord(chunk_id=CID, offset=0, size=1, t=2, n=3,
                            share_digests=digests)

    def test_share_record_validation(self):
        with pytest.raises(ValueError):
            ShareRecord(chunk_id=CID, index=-1, csp_id="c")


class TestViews:
    def test_shares_of(self):
        n = node()
        assert [s.index for s in n.shares_of(CID)] == [0, 1, 2]
        assert n.shares_of(sha1_hex(b"other")) == []

    def test_chunk_span(self):
        assert node().chunk_span() == 10
