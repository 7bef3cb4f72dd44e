"""Unit tests for the metadata version tree."""

from dataclasses import replace

import pytest

from repro.errors import MetadataError
from repro.metadata import ChunkRecord, MetadataNode, MetadataTree, ROOT_ID, ShareRecord
from repro.util.hashing import sha1_hex

#: One share digest per index at n=3 (no test here fetches a share).
DIGESTS = tuple(sha1_hex(b"share%d" % i) for i in range(3))


def mk(name, tag, prev=ROOT_ID, client="c1", modified=1.0, deleted=False):
    cid = sha1_hex(b"chunk" + tag.encode())
    return MetadataNode(
        file_id=sha1_hex(tag.encode()),
        prev_id=prev,
        client_id=client,
        name=name,
        deleted=deleted,
        modified=modified,
        size=5,
        chunks=(ChunkRecord(chunk_id=cid, offset=0, size=5, t=2, n=3,
                            share_digests=DIGESTS),),
        shares=(ShareRecord(chunk_id=cid, index=0, csp_id="a"),
                ShareRecord(chunk_id=cid, index=1, csp_id="b"),),
    )


class TestGrowth:
    def test_add_and_len(self):
        tree = MetadataTree()
        assert tree.add(mk("f", "v1"))
        assert len(tree) == 1

    def test_idempotent(self):
        tree = MetadataTree()
        n = mk("f", "v1")
        assert tree.add(n)
        assert not tree.add(n)
        assert len(tree) == 1

    def test_merge_counts_new(self):
        tree = MetadataTree()
        a, b = mk("f", "v1"), mk("g", "v2")
        assert tree.merge([a, b, a]) == 2

    def test_share_union_on_republish(self):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        cid = a.chunks[0].chunk_id
        migrated = MetadataNode(
            file_id=a.file_id, prev_id=a.prev_id, client_id=a.client_id,
            name=a.name, deleted=a.deleted, modified=a.modified, size=a.size,
            chunks=a.chunks,
            shares=a.shares + (ShareRecord(chunk_id=cid, index=2, csp_id="z"),),
        )
        tree.add(migrated)
        merged = tree.get(a.node_id)
        assert {(s.index, s.csp_id) for s in merged.shares} == {
            (0, "a"), (1, "b"), (2, "z"),
        }

    def test_edits_count_what_changed_the_tree(self):
        """``edits`` moves on a new node, a share merge and a removal,
        never on a re-add of a known node: a saved copy stays current
        while it holds."""
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        tree.add(a)
        assert tree.edits == 1
        tree.add(replace(a, shares=a.shares[:1]))  # nothing new to merge
        assert tree.edits == 1
        tree.add(replace(a, shares=(
            ShareRecord(chunk_id=a.chunks[0].chunk_id, index=2, csp_id="z"),)))
        assert tree.edits == 2
        tree.remove(a.node_id)
        tree.remove(a.node_id)
        assert tree.edits == 3

    def test_true_collision_raises(self):
        tree = MetadataTree()
        a = mk("f", "v1", modified=1.0)
        tree.add(a)
        forged = MetadataNode(
            file_id=a.file_id, prev_id=a.prev_id, client_id=a.client_id,
            name=a.name, deleted=a.deleted, modified=99.0, size=a.size,
            chunks=a.chunks, shares=a.shares,
        )
        with pytest.raises(MetadataError):
            tree.add(forged)

    def test_merge_order_independent(self):
        a = mk("f", "v1")
        b = mk("f", "v2", prev=a.node_id, modified=2.0)
        c = mk("g", "w1")
        t1, t2 = MetadataTree(), MetadataTree()
        t1.merge([a, b, c])
        t2.merge([c, b, a])
        assert t1.node_ids() == t2.node_ids()
        assert t1.latest("f").node_id == t2.latest("f").node_id


class TestLookup:
    def test_get_unknown(self):
        with pytest.raises(MetadataError):
            MetadataTree().get("0" * 40)

    def test_children_sorted_by_time(self):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        late = mk("f", "v2", prev=a.node_id, modified=5.0, client="x")
        early = mk("f", "v3", prev=a.node_id, modified=2.0, client="y")
        tree.add(late)
        tree.add(early)
        assert [n.modified for n in tree.children(a.node_id)] == [2.0, 5.0]

    def test_child_count_and_named_children(self):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.merge([a, mk("g", "w1", modified=4.0),
                    mk("f", "v2", modified=3.0, client="x"),
                    mk("f", "v3", prev=a.node_id)])
        assert tree.child_count(ROOT_ID) == 3
        assert tree.child_count(a.node_id) == 1
        assert tree.child_count("0" * 39 + "1") == 0
        assert tree.children(ROOT_ID, name="f") == [
            n for n in tree.children(ROOT_ID) if n.name == "f"
        ]
        assert len(tree.children(ROOT_ID, name="f")) == 2

    def test_removals_count_only_real_removals(self):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        assert tree.removals == 0
        assert not tree.remove(mk("g", "w1").node_id)
        assert tree.removals == 0
        assert tree.remove(a.node_id)
        tree.add(a)
        assert tree.removals == 1

    def test_leaves(self):
        tree = MetadataTree()
        a = mk("f", "v1")
        b = mk("f", "v2", prev=a.node_id, modified=2.0)
        tree.merge([a, b])
        assert [n.node_id for n in tree.leaves()] == [b.node_id]

    def test_latest_breaks_ties_deterministically(self):
        tree = MetadataTree()
        a = mk("f", "a-version", client="c1", modified=3.0)
        b = mk("f", "b-version", client="c2", modified=3.0)
        tree.merge([a, b])
        assert tree.latest("f").node_id == max(a.node_id, b.node_id)

    def test_latest_missing(self):
        with pytest.raises(MetadataError):
            MetadataTree().latest("ghost")


class TestHistory:
    def build_chain(self, length=4):
        tree = MetadataTree()
        prev = ROOT_ID
        nodes = []
        for i in range(length):
            n = mk("f", f"v{i}", prev=prev, modified=float(i))
            tree.add(n)
            nodes.append(n)
            prev = n.node_id
        return tree, nodes

    def test_history_newest_first(self):
        tree, nodes = self.build_chain()
        chain = tree.history(nodes[-1].node_id)
        assert [n.node_id for n in chain] == [
            n.node_id for n in reversed(nodes)
        ]

    def test_version_at_depth(self):
        tree, nodes = self.build_chain()
        assert tree.version_at_depth("f", 0).node_id == nodes[-1].node_id
        assert tree.version_at_depth("f", 3).node_id == nodes[0].node_id

    def test_version_too_deep(self):
        tree, _ = self.build_chain(2)
        with pytest.raises(MetadataError):
            tree.version_at_depth("f", 5)


class TestFileViews:
    def test_file_names_excludes_deleted(self):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        tomb = mk("f", "v1", prev=a.node_id, deleted=True, modified=2.0)
        tree.add(tomb)
        assert tree.file_names() == []
        assert tree.file_names(include_deleted=True) == ["f"]

    def test_heads_multiple_on_conflict(self):
        tree = MetadataTree()
        a = mk("f", "v1")
        tree.add(a)
        tree.add(mk("f", "v2a", prev=a.node_id, client="x", modified=2.0))
        tree.add(mk("f", "v2b", prev=a.node_id, client="y", modified=2.5))
        assert len(tree.heads("f")) == 2
