"""Metadata nodes: the paper's FileMap / ChunkMap / ShareMap (Figure 6).

A node describes one version of one file.  Its identity is the SHA-1 of
its lineage-defining fields (content id, parent, name, client), so

* re-uploading an identical version from the same client is idempotent
  (same node id), and
* two clients creating different content under one name — or editing
  the same parent differently — produce *different* node ids, which is
  precisely what makes conflicts detectable after the fact (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.util.hashing import sha1_hex
from repro.util.serialization import canonical_dumps

#: Id of the dummy root node every new file hangs from.
ROOT_ID = "0" * 40


@dataclass(frozen=True)
class ChunkRecord:
    """ChunkMap row: one chunk of the file version.

    ``share_digests`` carries one SHA-1 per share index (the Byzantine
    defense: a downloaded share is verified against its fingerprint
    before decoding, so a lying provider is detected and attributed
    rather than silently poisoning the decode).  Empty on nodes written
    before fingerprints existed; readers must treat those as
    unverifiable-but-trusted and fall back to post-decode checks.
    """

    chunk_id: str
    offset: int
    size: int
    t: int
    n: int
    share_digests: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size < 0:
            raise ValueError("offset and size must be non-negative")
        if not 1 <= self.t <= self.n:
            raise ValueError(f"bad (t, n) = ({self.t}, {self.n})")
        if self.share_digests and len(self.share_digests) != self.n:
            raise ValueError(
                f"need one share digest per index: got "
                f"{len(self.share_digests)} for n={self.n}"
            )

    def digest_of(self, index: int) -> str | None:
        """Expected SHA-1 of one share, or None on a pre-digest node."""
        if not self.share_digests or not 0 <= index < self.n:
            return None
        return self.share_digests[index]


@dataclass(frozen=True)
class ShareRecord:
    """ShareMap row: one share's location."""

    chunk_id: str
    index: int
    csp_id: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("share index must be non-negative")


@dataclass(frozen=True)
class MetadataNode:
    """One file version: FileMap fields plus chunk and share tables."""

    file_id: str  # SHA-1 of the file content
    prev_id: str  # parent node id; ROOT_ID for new files
    client_id: str
    name: str
    deleted: bool
    modified: float
    size: int
    chunks: tuple[ChunkRecord, ...] = ()
    shares: tuple[ShareRecord, ...] = ()

    def __post_init__(self) -> None:
        if len(self.file_id) != 40:
            raise ValueError(f"file_id must be a 40-hex SHA-1, got {self.file_id!r}")
        if len(self.prev_id) != 40:
            raise ValueError(f"prev_id must be a 40-hex SHA-1, got {self.prev_id!r}")
        if not self.name:
            raise ValueError("file name must be non-empty")
        if self.size < 0:
            raise ValueError("size must be non-negative")
        chunk_ids = {c.chunk_id for c in self.chunks}
        for share in self.shares:
            if share.chunk_id not in chunk_ids:
                raise ValueError(
                    f"share references unknown chunk {share.chunk_id[:8]}"
                )

    @cached_property
    def node_id(self) -> str:
        """Identity: SHA-1 over (file_id, prev_id, name, client_id).

        Hashed once per node object: the cache lives in the instance
        ``__dict__``, which the frozen dataclass's equality, hash and
        ``dataclasses.replace`` never look at.
        """
        return sha1_hex(
            canonical_dumps(
                [self.file_id, self.prev_id, self.name, self.client_id]
            )
        )

    @property
    def is_new_file(self) -> bool:
        """Whether this node starts a lineage (prevID = 0, Section 5.2)."""
        return self.prev_id == ROOT_ID

    def shares_of(self, chunk_id: str) -> list[ShareRecord]:
        """ShareMap rows for one chunk."""
        return [s for s in self.shares if s.chunk_id == chunk_id]

    def chunk_span(self) -> int:
        """Total bytes covered by the ChunkMap (== size when intact)."""
        return sum(c.size for c in self.chunks)
