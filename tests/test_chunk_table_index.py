"""The global chunk table is an index the metadata tree keeps (hypothesis).

``MetadataTree.add`` folds a node's ChunkMap and ShareMap into the
tree's table and references each distinct chunk it names once;
``remove`` drops those references and leaves the placements.  After any
sequence of tree adds (a re-add of a known node with extra ShareMap
rows included), removes, repair placements, CSP drops and re-admits and
forgets of unreferenced chunks, the table must agree with the nodes the
tree holds and with a placement history replayed beside it.  A dropped
CSP stays out of every placement, ShareMap rows folded later included,
until it is re-admitted.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata import (
    ROOT_ID,
    ChunkRecord,
    MetadataNode,
    MetadataTree,
    ShareRecord,
)
from repro.util.hashing import sha1_hex

CHUNKS = tuple(sha1_hex(b"chunk%d" % i) for i in range(5))
CSPS = ("a", "b", "c")
DIGESTS = tuple(sha1_hex(b"share%d" % i) for i in range(3))


def _node(name: str, picks: tuple[int, ...], deleted: bool,
          rows: frozenset[tuple[int, int, str]]) -> MetadataNode:
    """A node naming ``CHUNKS[i]`` for each pick (repeats allowed) with
    ShareMap rows ``(pick position, index, csp)``.  The file id hashes
    everything but the rows, so equal ids differ only in their
    ShareMap: a re-add takes the tree's share-merge branch."""
    chunks, offset = [], 0
    for i in picks:
        chunks.append(ChunkRecord(chunk_id=CHUNKS[i], offset=offset,
                                  size=10 + i, t=2, n=3,
                                  share_digests=DIGESTS))
        offset += 10 + i
    shares = sorted({ShareRecord(chunk_id=CHUNKS[picks[pos]], index=index,
                                 csp_id=csp)
                     for pos, index, csp in rows if pos < len(picks)},
                    key=lambda s: (s.chunk_id, s.index, s.csp_id))
    return MetadataNode(
        file_id=sha1_hex(repr((picks, deleted)).encode()), prev_id=ROOT_ID,
        client_id="c1", name=name, deleted=deleted, modified=1.0,
        size=offset, chunks=tuple(chunks), shares=tuple(shares),
    )


ROWS = st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2),
                               st.sampled_from(CSPS)), max_size=4)
OPS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(("f", "g")),
              st.lists(st.integers(0, 4), max_size=3).map(tuple),
              st.booleans(), ROWS),
    st.tuples(st.just("readd"), st.integers(0, 50), ROWS),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("add_placement"), st.integers(0, 4),
              st.integers(0, 2), st.sampled_from(CSPS + ("d",))),
    st.tuples(st.just("drop_csp"), st.sampled_from(CSPS + ("d",))),
    st.tuples(st.just("readmit_csp"), st.sampled_from(CSPS + ("d",))),
    st.tuples(st.just("forget"), st.integers(0, 50)),
)


def _fold(placed: dict[str, set], dropped: set[str], node: MetadataNode,
          known: MetadataNode | None = None) -> None:
    """Replay an add: a new node's chunks and rows, or the rows a
    re-added node brings beyond ``known`` (its copy in the tree), but
    no row at a ``dropped`` CSP."""
    for record in node.chunks:
        placed.setdefault(record.chunk_id, set())
    for share in set(node.shares) - set(known.shares if known else ()):
        if share.csp_id not in dropped:
            placed[share.chunk_id].add((share.index, share.csp_id))


def _check(tree: MetadataTree, placed: dict[str, set]) -> None:
    table = tree.chunk_table
    refs = Counter(chunk_id for node in tree
                   for chunk_id in {c.chunk_id for c in node.chunks})
    named = set(refs)
    held = set(table.all_chunk_ids())
    assert named <= held
    assert table.unreferenced() == sorted(held - named)
    for chunk_id in held:
        assert table.references(chunk_id) == refs[chunk_id]
    assert held == set(placed)
    for chunk_id, expected in placed.items():
        assert set(table.get(chunk_id).placements) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=30))
def test_table_is_the_index_of_the_tree(ops):
    tree = MetadataTree()
    table = tree.chunk_table
    # the placement history replayed beside the table: rows of nodes
    # when added, rows a re-add brings, repair placements, minus the
    # placements at each dropped CSP, which take nothing until re-admitted
    placed: dict[str, set] = {}
    dropped: set[str] = set()
    for op in ops:
        kind, *args = op
        nodes = sorted(tree, key=lambda n: n.node_id)
        if kind == "add":
            node = _node(*args)
            known = tree.get(node.node_id) if node.node_id in tree else None
            _fold(placed, dropped, node, known)
            tree.add(node)
        elif kind == "readd" and nodes:
            known = nodes[args[0] % len(nodes)]
            picks = tuple(CHUNKS.index(c.chunk_id) for c in known.chunks)
            node = _node(known.name, picks, known.deleted, args[1])
            assert node.node_id == known.node_id
            _fold(placed, dropped, node, known)
            tree.add(node)
        elif kind == "remove" and nodes:
            tree.remove(nodes[args[0] % len(nodes)].node_id)
        elif kind == "add_placement":
            chunk_id, index, csp = CHUNKS[args[0]], args[1], args[2]
            if chunk_id in placed:
                table.add_placement(chunk_id, index, csp)
                if csp not in dropped:
                    placed[chunk_id].add((index, csp))
        elif kind == "drop_csp":
            table.drop_csp(args[0])
            dropped.add(args[0])
            for entry in placed.values():
                entry -= {p for p in entry if p[1] == args[0]}
        elif kind == "readmit_csp":
            table.readmit_csp(args[0])
            dropped.discard(args[0])
        elif kind == "forget" and table.unreferenced():
            doomed = table.unreferenced()
            chunk_id = doomed[args[0] % len(doomed)]
            assert table.forget(chunk_id)
            del placed[chunk_id]
        _check(tree, placed)


def test_share_merge_folds_new_rows():
    tree = MetadataTree()
    tree.add(_node("f", (0,), False, frozenset({(0, 0, "a")})))
    assert not tree.add(_node("f", (0,), False, frozenset({(0, 1, "b")})))
    assert tree.chunk_table.get(CHUNKS[0]).placements == ((0, "a"), (1, "b"))


def test_remove_leaves_placements_until_forget():
    tree = MetadataTree()
    node = _node("f", (1, 1), True, frozenset({(0, 2, "c")}))
    tree.add(node)
    assert tree.chunk_table.references(CHUNKS[1]) == 1
    tree.remove(node.node_id)
    table = tree.chunk_table
    assert table.unreferenced() == [CHUNKS[1]]
    assert table.is_stored(CHUNKS[1])
    assert table.get(CHUNKS[1]).placements == ((2, "c"),)
