"""Unit tests for metadata serialization and scattered storage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cloud import CyrusCloud
from repro.core.sync import SyncService
from repro.core.transfer import DirectEngine
from repro.csp import InMemoryCSP
from repro.errors import MetadataError
from repro.metadata import (
    GlobalChunkTable,
    MetadataStore,
    MetadataTree,
    decode_node,
    encode_node,
    metadata_share_name,
    parse_metadata_share_name,
)
from repro.util.clock import SimClock
from tests.conftest import publish_node, read_nodes
from repro.metadata.codec import CODEC_VERSION
from tests.test_metadata_tree import mk


def _layout(blob: bytes) -> dict[str, int]:
    """Where the ChunkMap rows, the share digests and the ShareMap rows
    of an encoded node start."""
    from repro.metadata import codec

    head = codec._NODE_HEAD.unpack_from(blob)
    name_len, client_len, n_csps, n_chunks, n_shares = head[6:]
    pos = codec._NODE_HEAD.size + name_len + client_len
    for _ in range(n_csps):
        pos += 1 + blob[pos]
    return {"chunks": pos,
            "digests": pos + n_chunks * codec._CHUNK_ROW.size,
            "shares": len(blob) - n_shares * codec._SHARE_ROW.size}


class TestCodec:
    def test_roundtrip(self):
        node = mk("file.txt", "v1")
        assert decode_node(encode_node(node)) == node

    def test_canonical_bytes(self):
        node = mk("file.txt", "v1")
        assert encode_node(node) == encode_node(node)

    def test_corrupt_rejected(self):
        with pytest.raises(MetadataError):
            decode_node(b"not json at all")
        with pytest.raises(MetadataError):
            decode_node(b"{}")
        with pytest.raises(MetadataError):
            decode_node(b"")

    def test_version_rejected(self):
        blob = bytearray(encode_node(mk("f", "v1")))
        assert blob[0] == CODEC_VERSION
        blob[0] = 99
        with pytest.raises(MetadataError, match="version"):
            decode_node(bytes(blob))

    def test_short_chunk_row_rejected(self):
        """A ChunkMap row without its share digests (or cut inside its
        fixed fields) is refused, not read as a shorter node."""
        blob = encode_node(mk("f", "v1"))
        at = _layout(blob)
        for cut in (slice(at["digests"], at["shares"]),  # no digests
                    slice(at["digests"] - 1, at["digests"])):  # no n
            with pytest.raises(MetadataError):
                decode_node(blob[:cut.start] + blob[cut.stop:])

    def test_digest_count_must_match_n(self):
        blob = encode_node(mk("f", "v1"))
        at = _layout(blob)
        n_at = at["digests"] - 1  # n closes the one chunk row
        assert blob[n_at] == 3
        for n in (0, 2, 4):  # digests for 3 shares, rows claiming n
            forged = blob[:n_at] + bytes((n,)) + blob[n_at + 1:]
            with pytest.raises(MetadataError):
                decode_node(forged)
        for digests in (0, 2):  # n = 3, fewer digests stored
            forged = (blob[:at["digests"] + 20 * digests]
                      + blob[at["shares"]:])
            with pytest.raises(MetadataError):
                decode_node(forged)

    def test_share_index_beyond_n_rejected(self):
        blob = bytearray(encode_node(mk("f", "v1")))
        index_at = _layout(blob)["shares"] + 4  # row u32, then the index
        assert blob[index_at] == 0
        blob[index_at] = 3  # index == n
        with pytest.raises(MetadataError, match="out of range"):
            decode_node(bytes(blob))

    def test_share_names(self):
        node = mk("f", "v1")
        name = metadata_share_name(node.node_id, 7)
        parsed = parse_metadata_share_name(name)
        assert parsed == (node.node_id, 7)

    def test_share_name_validation(self):
        with pytest.raises(MetadataError):
            metadata_share_name("short", 0)
        with pytest.raises(MetadataError):
            metadata_share_name("a" * 40, -1)
        with pytest.raises(MetadataError):
            parse_metadata_share_name("sh-whatever")
        with pytest.raises(MetadataError):
            parse_metadata_share_name("md-tooshort-1")

    @pytest.mark.parametrize("suffix", ["-\u00b2", "-\u0661", "-0001",
                                        "-01", "-001\n"])
    def test_share_name_fails_closed(self, suffix):
        """Names ``metadata_share_name`` never makes: a superscript or an
        Arabic-Indic digit (``str.isdigit`` accepts both), a padded or
        short index, a trailing newline."""
        with pytest.raises(MetadataError):
            parse_metadata_share_name("md-" + "ab" * 20 + suffix)
        with pytest.raises(MetadataError):
            parse_metadata_share_name("md-" + "AB" * 20 + "-001")

    @settings(max_examples=300, deadline=None)
    @given(node_id=st.text("0123456789abcdef", min_size=40, max_size=40),
           index=st.integers(0, 5000), data=st.data())
    def test_share_name_mutations_round_trip_or_fail_closed(
            self, node_id, index, data):
        name = metadata_share_name(node_id, index)
        at = data.draw(st.integers(0, len(name)))
        char = data.draw(st.characters())
        mutated = data.draw(st.sampled_from([
            name[:at] + char + name[at + 1:],  # replace
            name[:at] + char + name[at:],  # insert
            name[:at] + name[at + 1:],  # delete
        ]))
        try:
            got = parse_metadata_share_name(mutated)
        except MetadataError:
            return
        assert metadata_share_name(*got) == mutated

    def test_planted_name_does_not_brick_sync(self):
        """One object under a name the parser used to crash on
        (``int("\u00b2")``) is skipped: another device still syncs and
        reads."""
        from repro.core.client import CyrusClient
        from repro.core.config import CyrusConfig

        from tests.conftest import SMALL_CHUNKS, deterministic_bytes

        csps = [InMemoryCSP(f"csp{i}") for i in range(4)]
        config = CyrusConfig(key="names", t=2, n=3, **SMALL_CHUNKS)
        a = CyrusClient.create(csps, config, client_id="a")
        data = deterministic_bytes(1500, seed=3)
        a.put("x", data)
        csps[0].upload("md-" + "ab" * 20 + "-\u00b2", b"junk")
        b = CyrusClient.create(csps, config, client_id="b")
        assert b.sync().new_nodes == 1
        assert b.get("x").data == data


class TestStore:
    def make(self, m=4, t=2):
        providers = [InMemoryCSP(f"p{i}") for i in range(m)]
        return MetadataStore([providers], key="key", t=t), providers

    def test_publish_fetch(self):
        store, _ = self.make()
        node = mk("f", "v1")
        publish_node(store, node)
        assert read_nodes(store) == {node.node_id: node}

    def test_shares_land_on_every_slot(self):
        store, providers = self.make()
        node = mk("f", "v1")
        assert [(provider, name, index) for provider, name, _blob, index
                in store.frames_for(node)] == [
            (p, metadata_share_name(node.node_id, i), i)
            for i, p in enumerate(providers)]
        publish_node(store, node)
        assert all(p.object_count == 1 for p in providers)

    def test_survives_m_minus_t_failures(self):
        store, providers = self.make(m=4, t=2)
        node = mk("f", "v1")
        publish_node(store, node)
        # two providers lose their shares
        for p in providers[:2]:
            for info in p.list():
                p.delete(info.name)
        assert read_nodes(store) == {node.node_id: node}

    def test_fails_below_t_shares(self):
        store, providers = self.make(m=3, t=2)
        node = mk("f", "v1")
        publish_node(store, node)
        for p in providers[:2]:
            for info in p.list():
                p.delete(info.name)
        assert read_nodes(store) == {node.node_id: None}  # not decoded

    def test_list_node_ids(self):
        # the slot listing names exactly the published nodes
        from repro.metadata.codec import parse_metadata_share_name
        from repro.redundancy.reconcile import slot_listing

        store, providers = self.make()
        a, b = mk("f", "v1"), mk("g", "w1")
        publish_node(store, a)
        publish_node(store, b)
        engine = DirectEngine({p.csp_id: p for p in providers},
                              clock=SimClock())
        listing = slot_listing(engine, CyrusCloud(providers), store)
        assert {parse_metadata_share_name(name)[0]
                for names in listing.values()
                for name in names} == {a.node_id, b.node_id}

    def test_fetch_all(self):
        # every node the slots list is read back, each from its own shares
        store, _ = self.make()
        nodes = [mk("f", "v1"), mk("g1", "w1"), mk("g2", "w2")]
        for n in nodes:
            publish_node(store, n)
        assert read_nodes(store) == {n.node_id: n for n in nodes}

    def test_a_publish_encodes_its_node_once(self, monkeypatch):
        import repro.metadata.store as store_module
        from repro.metadata.codec import pack_meta_share
        from repro.util.hashing import sha1_hex

        encode, calls = store_module.encode_node, []

        def counting(node):
            calls.append(node)
            return encode(node)

        monkeypatch.setattr(store_module, "encode_node", counting)
        store, providers = self.make()
        node = mk("f", "v1")
        frames = store.frames_for(node, stamp=7)
        assert len(calls) == 1
        # the same bytes as framing each share of the node's one split
        payload = encode(node)
        assert frames == [
            (providers[share.index],
             metadata_share_name(node.node_id, share.index),
             pack_meta_share(share.data, share.chunk_size,
                             sha1_hex(payload), 7), share.index)
            for share in store._sharer.split(payload)
        ]

    def test_partial_upload_invisible(self):
        # fewer than t shares visible => a sync neither sees nor fetches
        # the node (it is mid-upload)
        store, providers = self.make(m=4, t=3)
        node = mk("f", "v1")
        publish_node(store, node, indices={0})
        tree = MetadataTree()
        engine = DirectEngine({p.csp_id: p for p in providers},
                              clock=SimClock())
        report = SyncService(store, tree, engine,
                             CyrusCloud(providers)).sync()
        assert (report.new_nodes, report.fetch_results) == (0, ())
        assert tree.node_ids() == set()

    def test_needs_t_providers(self):
        with pytest.raises(MetadataError):
            MetadataStore([[InMemoryCSP("only")]], key="k", t=2)

    def test_slot_growth_keeps_old_nodes_decodable(self):
        # metadata slots are append-only; the key-derived dispersal
        # points are prefix-stable, so nodes published at m=4 must stay
        # decodable by a store rebuilt at m=5
        store4, providers = self.make(m=4, t=2)
        node = mk("f", "v1")
        publish_node(store4, node)
        providers.append(InMemoryCSP("p-new"))
        store5 = MetadataStore([providers], key="key", t=2)
        assert read_nodes(store5)[node.node_id] == node

    def test_new_nodes_span_grown_slot_set(self):
        store4, providers = self.make(m=4, t=2)
        providers = [*providers, InMemoryCSP("p-new")]
        store5 = MetadataStore([providers], key="key", t=2)
        node = mk("g", "w1")
        publish_node(store5, node)
        assert providers[-1].object_count == 1  # new slot got a share
        # and a client still on m=4 can read it (needs only t=2 shares)
        assert read_nodes(store4) == {node.node_id: node}


class TestChunkTable:
    def test_record_and_query(self):
        tree = MetadataTree()
        node = mk("f", "v1")
        tree.add(node)
        table = tree.chunk_table
        cid = node.chunks[0].chunk_id
        assert table.is_stored(cid)
        loc = table.get(cid)
        assert loc.csps() == ["a", "b"]
        assert loc.placements == ((0, "a"), (1, "b"))

    def test_unknown_chunk(self):
        table = MetadataTree().chunk_table
        assert table.get("f" * 40) is None
        assert not table.is_stored("f" * 40)

    def test_add_placement(self):
        tree = MetadataTree()
        node = mk("f", "v1")
        tree.add(node)
        table = tree.chunk_table
        cid = node.chunks[0].chunk_id
        table.add_placement(cid, 2, "new-csp")
        assert "new-csp" in table.get(cid).csps()

    def test_add_placement_unknown_chunk(self):
        with pytest.raises(KeyError):
            GlobalChunkTable().add_placement("e" * 40, 0, "x")

    def test_drop_csp(self):
        tree = MetadataTree()
        node = mk("f", "v1")
        tree.add(node)
        table = tree.chunk_table
        assert table.drop_csp("a") == 1
        assert "a" not in table.get(node.chunks[0].chunk_id).csps()
