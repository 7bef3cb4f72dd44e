"""The global chunk table (paper Section 5.2).

"CYRUS maintains a global chunk table listing the chunks whose shares
are stored at each CSP."  The table is derivable from the ShareMaps of
all known metadata nodes, so we maintain it as an index over the local
metadata tree: rebuilt on sync, updated incrementally on upload.  It
answers the two questions the upload and download paths ask:

* dedup — is this chunk already stored (skip re-encoding/upload)?
* recovery — which shares does a removed CSP take with it?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.metadata.node import MetadataNode


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

    def indices_at(self, csp_id: str) -> list[int]:
        """Share indices stored at one CSP."""
        return sorted(i for i, csp in self.placements if csp == csp_id)


class GlobalChunkTable:
    """Chunk -> share placements, aggregated over all metadata nodes."""

    def __init__(self) -> None:
        self._chunks: dict[str, dict] = {}

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._chunks

    def __len__(self) -> int:
        return len(self._chunks)

    def record_node(self, node: MetadataNode) -> None:
        """Fold one metadata node's ChunkMap + ShareMap into the table."""
        sizes = {
            c.chunk_id: (c.size, c.t, c.n, c.share_digests)
            for c in node.chunks
        }
        for share in node.shares:
            size, t, n, digests = sizes[share.chunk_id]
            # deterministic coding: every node recording this chunk
            # carries the same digests, so the first one stands
            entry = self._chunks.setdefault(
                share.chunk_id,
                {"size": size, "t": t, "n": n, "placements": set(),
                 "digests": digests},
            )
            entry["placements"].add((share.index, share.csp_id))

    def rebuild(self, nodes: Iterable[MetadataNode]) -> None:
        """Recompute the table from scratch (used after metadata sync)."""
        self._chunks.clear()
        for node in nodes:
            self.record_node(node)

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

    def chunks_at(self, csp_id: str) -> list[str]:
        """Chunks with at least one share at the given CSP.

        This is the per-CSP view the paper's global chunk table provides;
        CSP removal uses it to know what needs migration (Section 5.5).
        """
        return sorted(
            chunk_id
            for chunk_id, entry in self._chunks.items()
            if any(csp == csp_id for _, csp in entry["placements"])
        )

    def add_placement(self, chunk_id: str, index: int, csp_id: str) -> None:
        """Record a share created after the fact (lazy migration)."""
        if chunk_id not in self._chunks:
            raise KeyError(f"unknown chunk {chunk_id[:8]}")
        self._chunks[chunk_id]["placements"].add((index, csp_id))

    def drop_csp(self, csp_id: str) -> int:
        """Forget all placements at a removed CSP; returns count dropped."""
        dropped = 0
        for entry in self._chunks.values():
            before = len(entry["placements"])
            entry["placements"] = {
                (i, c) for i, c in entry["placements"] if c != csp_id
            }
            dropped += before - len(entry["placements"])
        return dropped

    def all_chunk_ids(self) -> list[str]:
        """Every chunk the table knows about (sorted)."""
        return sorted(self._chunks)

    def forget(self, chunk_id: str) -> bool:
        """Drop a chunk entirely (after garbage collection deletes it)."""
        return self._chunks.pop(chunk_id, None) is not None

    def bytes_at(self, csp_id: str) -> int:
        """Total share bytes stored at one CSP (share size = size/t)."""
        total = 0
        for entry in self._chunks.values():
            share_size = -(-entry["size"] // entry["t"])  # ceil
            count = sum(1 for _, c in entry["placements"] if c == csp_id)
            total += share_size * count
        return total
