"""The global chunk table (paper Section 5.2).

"CYRUS maintains a global chunk table listing the chunks whose shares
are stored at each CSP."  The table is derivable from the ShareMaps of
the metadata nodes, so it is an index the metadata tree keeps: each
:class:`repro.metadata.tree.MetadataTree` owns one, and the tree's
``add`` and ``remove`` are the only way a node's ChunkMap and ShareMap
enter or leave it.  Every chunk counts the tree nodes that name it,
tombstones included; a chunk whose count reaches zero keeps its
placements (and stays stored) until a collection forgets it.
Placements that no ShareMap names come only from repair and migration
(``add_placement``).  A removed CSP (``drop_csp``) takes its placements
with it and stays out, ShareMap rows included, until ``readmit_csp``.

The table answers three questions:

* dedup — is this chunk already stored (skip re-encoding/upload)?
* CSP removal — which placements does a removed CSP take with it?
* collection — which stored chunks does no node reference any more?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.metadata.node import MetadataNode, ShareRecord


@dataclass(frozen=True)
class ChunkLocation:
    """Where one chunk lives: (t, n), size and share placements.

    ``share_digests`` (one SHA-1 per index) lets the uploader
    fingerprint a deduplicated chunk without re-encoding it.
    """

    chunk_id: str
    size: int
    t: int
    n: int
    placements: tuple[tuple[int, str], ...]  # (share index, csp_id)
    share_digests: tuple[str, ...]

    def csps(self) -> list[str]:
        """CSPs currently holding a share of this chunk."""
        return sorted({csp for _, csp in self.placements})


class GlobalChunkTable:
    """Chunk -> share placements and reference count, over the nodes of
    the tree that owns it (``_reference`` / ``_release`` / ``_place``
    are the tree's calls)."""

    def __init__(self) -> None:
        self._chunks: dict[str, dict] = {}
        self._dropped: set[str] = set()  # CSPs ``drop_csp`` took away

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._chunks

    def __len__(self) -> int:
        return len(self._chunks)

    def _reference(self, node: MetadataNode) -> None:
        """Fold a node the tree just inserted: one reference to each
        distinct chunk its ChunkMap names, then its ShareMap rows."""
        chunks = self._chunks
        for chunk_id, record in {c.chunk_id: c for c in node.chunks}.items():
            entry = chunks.get(chunk_id)
            if entry is None:
                # deterministic coding: every node naming this chunk
                # carries the same digests, so the first one stands
                entry = chunks[chunk_id] = {
                    "size": record.size, "t": record.t, "n": record.n,
                    "placements": set(), "digests": record.share_digests,
                    "refs": 0,
                }
            entry["refs"] += 1
        self._place(node.shares)

    def _place(self, shares: Iterable[ShareRecord]) -> None:
        """Fold ShareMap rows of chunks a tree node names (none at a
        dropped CSP)."""
        chunks, dropped = self._chunks, self._dropped
        if dropped:
            shares = [s for s in shares if s.csp_id not in dropped]
        for share in shares:
            chunks[share.chunk_id]["placements"].add(
                (share.index, share.csp_id))

    def _release(self, node: MetadataNode) -> None:
        """Drop the references of a node the tree just removed; its
        chunks keep their placements until a collection forgets them."""
        for chunk_id in {c.chunk_id for c in node.chunks}:
            self._chunks[chunk_id]["refs"] -= 1

    def get(self, chunk_id: str) -> ChunkLocation | None:
        """Placement info for one chunk, or None if unknown."""
        entry = self._chunks.get(chunk_id)
        if entry is None:
            return None
        return ChunkLocation(
            chunk_id=chunk_id,
            size=entry["size"],
            t=entry["t"],
            n=entry["n"],
            placements=tuple(sorted(entry["placements"])),
            share_digests=entry["digests"],
        )

    def is_stored(self, chunk_id: str) -> bool:
        """Dedup test: Algorithm 2's "if chunk is not stored"."""
        return chunk_id in self._chunks

    def references(self, chunk_id: str) -> int:
        """How many tree nodes name the chunk (0 when unknown)."""
        entry = self._chunks.get(chunk_id)
        return 0 if entry is None else entry["refs"]

    def unreferenced(self) -> list[str]:
        """Stored chunks no tree node names (sorted): what a collection
        may delete."""
        return sorted(chunk_id for chunk_id, entry in self._chunks.items()
                      if not entry["refs"])

    def add_placement(self, chunk_id: str, index: int, csp_id: str) -> None:
        """Record a share created after the fact (repair, migration)."""
        if chunk_id not in self._chunks:
            raise KeyError(f"unknown chunk {chunk_id[:8]}")
        if csp_id not in self._dropped:
            self._chunks[chunk_id]["placements"].add((index, csp_id))

    def drop_csp(self, csp_id: str) -> int:
        """Forget all placements at a removed CSP, and keep out every
        later one until :meth:`readmit_csp`; returns count dropped."""
        self._dropped.add(csp_id)
        dropped = 0
        for entry in self._chunks.values():
            before = len(entry["placements"])
            entry["placements"] = {
                (i, c) for i, c in entry["placements"] if c != csp_id
            }
            dropped += before - len(entry["placements"])
        return dropped

    def readmit_csp(self, csp_id: str) -> None:
        """Take placements at a CSP re-added after ``drop_csp`` again."""
        self._dropped.discard(csp_id)

    def all_chunk_ids(self) -> list[str]:
        """Every chunk the table knows about (sorted)."""
        return sorted(self._chunks)

    def forget(self, chunk_id: str) -> bool:
        """Drop an unreferenced chunk entirely (after a collection
        deleted its shares)."""
        return self._chunks.pop(chunk_id, None) is not None
