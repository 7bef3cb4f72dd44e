"""Indexed structures against naive reference models (hypothesis).

``MetadataTree`` and ``InMemoryCSP`` answer from indexes they maintain
on every write.  The references here are the full-rescan bodies those
indexes replaced: after any operation sequence the indexed view must
equal the rescanned one, order and tie-breaks included.  The count
guards at the bottom pin the *cost* the same way — by counting calls,
never by timing.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csp.base import ObjectInfo
from repro.csp.memory import InMemoryCSP
from repro.errors import MetadataError, ObjectNotFoundError
from repro.metadata import (
    ROOT_ID,
    ChunkRecord,
    MetadataNode,
    MetadataTree,
    ShareRecord,
)
from repro.util.hashing import sha1_hex

from tests.conftest import deterministic_bytes

# -- MetadataTree ------------------------------------------------------------

NAMES = ("a", "b", "c")
DIGESTS = tuple(sha1_hex(b"share%d" % i) for i in range(3))


def _node(tag: int, prev: str, name: str, modified: float, deleted: bool):
    chunk_id = sha1_hex(b"chunk%d" % tag)
    return MetadataNode(
        file_id=sha1_hex(b"file%d" % tag), prev_id=prev, client_id="c1",
        name=name, deleted=deleted, modified=modified, size=5,
        chunks=(ChunkRecord(chunk_id=chunk_id, offset=0, size=5, t=2, n=3,
                            share_digests=DIGESTS),),
        shares=(ShareRecord(chunk_id=chunk_id, index=0, csp_id="p0"),),
    )


@st.composite
def node_pools(draw) -> list[MetadataNode]:
    """Nodes whose parents are the root or an earlier pool member: a
    forest with branches (conflicts), renames and stamp ties."""
    pool: list[MetadataNode] = []
    for tag in range(draw(st.integers(1, 12))):
        parent = draw(st.integers(-1, tag - 1))
        prev = ROOT_ID if parent < 0 else pool[parent].node_id
        inherited = NAMES[0] if parent < 0 else pool[parent].name
        name = draw(st.sampled_from((inherited,) * 3 + NAMES))
        pool.append(_node(tag, prev, name,
                          modified=float(draw(st.integers(1, 3))),
                          deleted=draw(st.booleans())))
    return pool


def _migrated(node: MetadataNode, csp: int) -> MetadataNode:
    """The same version re-published with one more share location."""
    extra = ShareRecord(chunk_id=node.chunks[0].chunk_id, index=1,
                        csp_id=f"p{csp}")
    return replace(node, shares=node.shares + (extra,))


class NaiveTree:
    """The reference: one dict of nodes, every view a full rescan."""

    def __init__(self) -> None:
        self.nodes: dict[str, MetadataNode] = {}

    def add(self, node: MetadataNode) -> bool:
        old = self.nodes.get(node.node_id)
        if old is None:
            self.nodes[node.node_id] = node
            return True
        shares = sorted(set(old.shares) | set(node.shares),
                        key=lambda s: (s.chunk_id, s.index, s.csp_id))
        self.nodes[node.node_id] = replace(old, shares=tuple(shares))
        return False

    def remove(self, node_id: str) -> bool:
        return self.nodes.pop(node_id, None) is not None

    @staticmethod
    def _ordered(nodes) -> list[MetadataNode]:
        return sorted(nodes, key=lambda n: (n.modified, n.node_id))

    def children(self, node_id: str) -> list[MetadataNode]:
        return self._ordered(
            n for n in self.nodes.values() if n.prev_id == node_id)

    def leaves(self) -> list[MetadataNode]:
        parents = {n.prev_id for n in self.nodes.values()}
        return self._ordered(
            n for n in self.nodes.values() if n.node_id not in parents)

    def heads(self, name: str) -> list[MetadataNode]:
        return [n for n in self.leaves() if n.name == name]

    def file_names(self, include_deleted: bool) -> list[str]:
        return sorted({n.name for n in self.leaves()
                       if include_deleted or not n.deleted})

    def version_at_depth(self, name: str, back: int) -> MetadataNode | None:
        heads = self.heads(name)
        node = heads[-1] if heads else None
        for _ in range(back):
            node = self.nodes.get(node.prev_id) if node else None
        return node


def _assert_same_views(tree: MetadataTree, ref: NaiveTree, pool) -> None:
    assert tree.node_ids() == set(ref.nodes)
    assert len(tree) == len(ref.nodes)
    assert list(tree) == list(ref.nodes.values())
    assert tree.leaves() == ref.leaves()
    for flag in (False, True):
        assert tree.file_names(include_deleted=flag) == ref.file_names(flag)
    for node_id in [ROOT_ID] + [n.node_id for n in pool]:
        assert tree.children(node_id) == ref.children(node_id)
    for name in NAMES:
        heads = ref.heads(name)
        assert tree.heads(name) == heads
        for back in range(4):
            want = ref.version_at_depth(name, back)
            if want is None:
                with pytest.raises(MetadataError):
                    tree.version_at_depth(name, back)
            else:
                assert tree.version_at_depth(name, back) == want
        if heads:
            assert tree.latest(name) == heads[-1]
        else:
            with pytest.raises(MetadataError):
                tree.latest(name)


@given(data=st.data(), pool=node_pools())
@settings(max_examples=150, deadline=None)
def test_tree_indexes_match_a_full_rescan(data, pool):
    tree, ref = MetadataTree(), NaiveTree()
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(("add", "add", "migrate", "remove")),
                  st.integers(0, len(pool) - 1), st.integers(1, 2)),
        max_size=30,
    ))
    for kind, at, csp in ops:
        node = pool[at]
        if kind == "remove":
            assert tree.remove(node.node_id) == ref.remove(node.node_id)
        else:  # first add, duplicate add, or share-merging re-publish
            if kind == "migrate":
                node = _migrated(node, csp)
            assert tree.add(node) == ref.add(node)
        _assert_same_views(tree, ref, pool)


def test_node_id_is_memoised_without_touching_value_semantics():
    a = _node(1, ROOT_ID, "a", 1.0, False)
    b = _node(1, ROOT_ID, "a", 1.0, False)
    assert a.node_id == b.node_id  # a has its id cached from here on
    c = _node(1, ROOT_ID, "a", 1.0, False)
    assert a == c and hash(a) == hash(c)  # cache is not part of the value
    renamed = replace(a, name="other")
    assert renamed.node_id != a.node_id  # replace() starts from no cache
    assert replace(a, shares=()).node_id == a.node_id


# -- InMemoryCSP ---------------------------------------------------------------

TOP = chr(sys.maxunicode)
object_names = st.text(alphabet="ab/" + TOP, max_size=4)


def _model_listing(model: dict, prefix: str) -> list[ObjectInfo]:
    return [
        ObjectInfo(name=name, size=len(revs[-1][1]), modified=revs[-1][0])
        for name, revs in sorted(model.items()) if name.startswith(prefix)
    ]


@given(
    overwrite=st.booleans(),
    ops=st.lists(st.tuples(st.sampled_from(("upload", "upload", "delete")),
                           object_names, st.binary(max_size=6)),
                 max_size=40),
    prefixes=st.lists(object_names, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_memory_provider_matches_a_plain_dict(overwrite, ops, prefixes):
    csp = InMemoryCSP("m", overwrite=overwrite)
    model: dict[str, list[tuple[float, bytes]]] = {}
    stamp = 0
    for kind, name, data in ops:
        if kind == "upload":
            stamp += 1
            revs = model.setdefault(name, [])
            if overwrite:
                revs.clear()
            revs.append((float(stamp), data))
            csp.upload(name, bytearray(data))  # any bytes-like goes
        elif name in model:
            del model[name]
            csp.delete(name)
        else:
            with pytest.raises(ObjectNotFoundError):
                csp.delete(name)
    # the empty prefix, random ones, and prefixes that are full names
    for prefix in ["", *prefixes, *model]:
        assert csp.list(prefix=prefix) == _model_listing(model, prefix)
    assert csp.stored_bytes == sum(
        len(data) for revs in model.values() for _, data in revs)
    assert csp.object_count == len(model)
    for name, revs in model.items():
        assert csp.revision_count(name) == len(revs)
        assert csp.object_size(name) == len(revs[-1][1])
        assert csp.download(name) == revs[-1][1]
    assert csp.revision_count("absent") == 0
    assert csp.object_size("absent") is None


def test_memory_provider_index_survives_concurrent_writers():
    """A parallel engine calls one provider from several pool threads."""
    csp = InMemoryCSP("m")
    workers, per_worker = 16, 200

    def churn(worker: int) -> None:
        for i in range(per_worker):
            name = f"{i % 7}/{worker:02d}-{i:03d}"
            csp.upload(name, b"x" * (i % 5 + 1))
            csp.list(prefix=f"{i % 7}/")
            if i % 3 == 0:
                csp.delete(name)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(w,))
                   for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    listed = csp.list()
    names = [info.name for info in listed]
    assert names == sorted(set(names))
    assert len(names) == csp.object_count == workers * sum(
        1 for i in range(per_worker) if i % 3)
    assert csp.stored_bytes == sum(info.size for info in listed)
    for info in listed:
        assert csp.object_size(info.name) == info.size


# -- cost guards: counts, not timings -----------------------------------------


def test_reading_heads_of_a_large_tree_hashes_nothing(monkeypatch):
    tree = MetadataTree()
    for lineage in range(200):
        prev = ROOT_ID
        for version in range(5):
            node = _node(lineage * 5 + version, prev, f"f{lineage}",
                         modified=float(version), deleted=False)
            tree.add(node)
            prev = node.node_id
    assert len(tree) == 1000
    calls = []
    monkeypatch.setattr("repro.metadata.node.sha1_hex",
                        lambda data: calls.append(data) or sha1_hex(data))
    for lineage in range(100):
        assert len(tree.heads(f"f{lineage}")) == 1
        assert tree.latest(f"f{lineage}").modified == 4.0
    assert calls == []


@pytest.mark.parametrize("history", [3, 40])
def test_sync_parses_only_the_entries_of_new_nodes(
    client, second_client, monkeypatch, history,
):
    import repro.core.sync as sync_module

    for i in range(history):
        client.put(f"old{i}.bin", deterministic_bytes(300, seed=i))
    assert second_client.sync().new_nodes == history
    new = 3
    for i in range(new):
        client.put(f"new{i}.bin", deterministic_bytes(300, seed=100 + i))
    parsed = []
    plain = sync_module.parse_metadata_share_name
    monkeypatch.setattr(sync_module, "parse_metadata_share_name",
                        lambda name: parsed.append(name) or plain(name))
    assert second_client.sync().new_nodes == new
    slots = len(second_client.store.providers)
    assert 0 < len(parsed) <= new * slots  # whatever the history was
