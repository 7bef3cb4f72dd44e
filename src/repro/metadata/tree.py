"""The metadata version tree (paper Section 5.2).

Nodes hang under a dummy root; each node's ``prev_id`` points at the
version it was derived from.  The tree is a CRDT-ish grow-only set:
``add`` is idempotent and commutative, so two clients merging each
other's nodes in any order converge to the same tree — the property
that lets CYRUS be "as consistent as the CSPs where it stores files".
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, KeysView

from repro.errors import MetadataError
from repro.metadata.node import ROOT_ID, MetadataNode


def _version_order(node: MetadataNode) -> tuple[float, str]:
    """Listing order of versions: oldest first, node id breaks ties."""
    return node.modified, node.node_id


class MetadataTree:
    """All known file versions, indexed every way the client needs.

    ``add`` and ``remove`` keep three indexes in step — nodes by id,
    child ids by parent id, and leaf ids by file name — so every view
    below costs what it returns, not what the tree holds.  The indexes
    store ids, never node objects, so the share-merge replacement in
    ``add`` (same id, name, parent and stamp) leaves them valid.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, MetadataNode] = {}
        self._children: dict[str, set[str]] = {}
        self._heads: dict[str, set[str]] = {}  # name -> childless node ids

    # -- growth ------------------------------------------------------------

    def add(self, node: MetadataNode) -> bool:
        """Insert a node; returns False if it was already present.

        A re-publication of a known node that differs *only* in its
        ShareMap merges placements (union): lazy migration adds share
        locations after the fact (Section 5.5), and placement sets only
        grow, so the union is the correct join.  Any other divergence
        under one node id is corruption and raises.
        """
        node_id = node.node_id
        existing = self._nodes.get(node_id)
        if existing is not None:
            if existing == node:
                return False
            if self._same_except_shares(existing, node):
                merged_shares = tuple(
                    sorted(
                        set(existing.shares) | set(node.shares),
                        key=lambda s: (s.chunk_id, s.index, s.csp_id),
                    )
                )
                self._nodes[node_id] = replace(existing, shares=merged_shares)
                return False
            raise MetadataError(
                f"node id collision with differing content: {node_id[:8]}"
            )
        self._nodes[node_id] = node
        self._children.setdefault(node.prev_id, set()).add(node_id)
        # nodes arrive in any order: a child may already be waiting
        if not self._children.get(node_id):
            self._heads.setdefault(node.name, set()).add(node_id)
        parent = self._nodes.get(node.prev_id)
        if parent is not None:
            self._drop_head(parent)
        return True

    def _drop_head(self, node: MetadataNode) -> None:
        heads = self._heads.get(node.name)
        if heads is not None:
            heads.discard(node.node_id)
            if not heads:
                del self._heads[node.name]

    @staticmethod
    def _same_except_shares(a: MetadataNode, b: MetadataNode) -> bool:
        return replace(a, shares=()) == replace(b, shares=())

    def merge(self, nodes: Iterable[MetadataNode]) -> int:
        """Insert many nodes; returns how many were new."""
        return sum(1 for node in nodes if self.add(node))

    def remove(self, node_id: str) -> bool:
        """Forget a node (history pruning); returns False when unknown.

        Only maintenance code calls this — the tree is otherwise
        grow-only.  Children of the removed node keep their ``prev_id``
        (a dangling parent reference, which traversals treat as a break;
        pruning rewrites the survivor's lineage to avoid that).
        """
        node = self._nodes.pop(node_id, None)
        if node is None:
            return False
        self._drop_head(node)
        kids = self._children.get(node.prev_id)
        if kids is not None:
            kids.discard(node_id)
            if not kids:
                del self._children[node.prev_id]
                parent = self._nodes.get(node.prev_id)
                if parent is not None:  # its last successor just left
                    self._heads.setdefault(parent.name, set()).add(
                        node.prev_id
                    )
        return True

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[MetadataNode]:
        return iter(self._nodes.values())

    def get(self, node_id: str) -> MetadataNode:
        node = self._nodes.get(node_id)
        if node is None:
            raise MetadataError(f"unknown metadata node {node_id[:8]}")
        return node

    def node_ids(self) -> KeysView[str]:
        """All known node ids: a live, set-like, read-only view."""
        return self._nodes.keys()

    def children(self, node_id: str) -> list[MetadataNode]:
        """Direct successors of a node (concurrent edits if > 1)."""
        return sorted(
            (self._nodes[c] for c in self._children.get(node_id, ())),
            key=_version_order,
        )

    def leaves(self) -> list[MetadataNode]:
        """Nodes with no successors — candidate current versions."""
        return sorted(
            (
                self._nodes[node_id]
                for heads in self._heads.values()
                for node_id in heads
            ),
            key=_version_order,
        )

    # -- per-file views ---------------------------------------------------

    def file_names(self, include_deleted: bool = False) -> list[str]:
        """Names with at least one live head (or any head when asked)."""
        return sorted(
            name
            for name, heads in self._heads.items()
            if include_deleted
            or any(not self._nodes[h].deleted for h in heads)
        )

    def heads(self, name: str) -> list[MetadataNode]:
        """Leaf versions of one file; > 1 means an unresolved conflict."""
        return sorted(
            (self._nodes[h] for h in self._heads.get(name, ())),
            key=_version_order,
        )

    def latest(self, name: str) -> MetadataNode:
        """The most recent head (ties broken by node id for determinism)."""
        heads = self._heads.get(name)
        if not heads:
            raise MetadataError(f"no versions of {name!r}")
        return max((self._nodes[h] for h in heads), key=_version_order)

    def history(self, node_id: str) -> list[MetadataNode]:
        """The version chain from a node back to its oldest known version.

        The chain ends at a first-version node (prevID = 0) or at a
        *pruned* ancestor — history pruning deletes old nodes without
        rewriting survivors, leaving a dangling parent reference that is
        treated as the start of history.
        """
        out: list[MetadataNode] = []
        seen: set[str] = set()
        cursor = node_id
        while cursor != ROOT_ID and cursor in self._nodes:
            if cursor in seen:
                raise MetadataError(f"metadata cycle at {cursor[:8]}")
            seen.add(cursor)
            node = self._nodes[cursor]
            out.append(node)
            cursor = node.prev_id
        if not out:
            raise MetadataError(f"unknown metadata node {node_id[:8]}")
        return out

    def version_at_depth(self, name: str, back: int) -> MetadataNode:
        """Walk ``back`` versions up from the latest head (0 = latest).

        This is the paper's versioning interface: "Clients can recover
        previous versions of files by traversing the metadata tree up
        from the current file version" (Section 5.4).
        """
        chain = self.history(self.latest(name).node_id)
        if back >= len(chain):
            raise MetadataError(
                f"{name!r} has only {len(chain)} versions, asked for {back}"
            )
        return chain[back]

    # -- chunk-level views --------------------------------------------------

    def referenced_chunks(self) -> set[str]:
        """Chunk ids referenced by any non-deleted lineage.

        Used by share garbage-collection: "Shares of the file's component
        chunks are left alone, since other files may contain these
        chunks" — a chunk is reclaimable only when *no* version of *any*
        file references it.
        """
        out: set[str] = set()
        for node in self._nodes.values():
            out.update(c.chunk_id for c in node.chunks)
        return out
