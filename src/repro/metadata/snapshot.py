"""Local metadata-tree persistence.

Paper Section 3.2: "clients maintaining local copies of the metadata
tree for efficiency."  A snapshot serialises every known node so a
client can restart without re-fetching all metadata from the CSPs —
the next sync only pulls nodes published since the snapshot.

The snapshot is a convenience copy, never an authority: it holds each
node's encoding exactly as it is scattered to CSPs
(:func:`repro.metadata.codec.encode_node`), so a stale or deleted
snapshot costs only a longer first sync.  Layout: ``CYTS`` magic,
version u8, node count u32, then per node a u32 length and the node
bytes, in ascending byte order.  Like the node decoder,
:func:`load_snapshot` fails closed and accepts only what
:func:`dump_snapshot` writes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable

from repro.errors import MetadataError
from repro.metadata.codec import decode_node, encode_node
from repro.metadata.node import MetadataNode
from repro.metadata.tree import MetadataTree

#: Snapshot format version.
SNAPSHOT_VERSION = 2

_MAGIC = b"CYTS"
_HEAD = struct.Struct(">4sBI")  # magic, version, node count
_LEN = struct.Struct(">I")


def dump_snapshot(nodes: Iterable[MetadataNode]) -> bytes:
    """Serialise nodes to snapshot bytes."""
    blobs = sorted({encode_node(node) for node in nodes})
    parts = [_HEAD.pack(_MAGIC, SNAPSHOT_VERSION, len(blobs))]
    for blob in blobs:
        parts += (_LEN.pack(len(blob)), blob)
    return b"".join(parts)


def load_snapshot(blob: bytes) -> list[MetadataNode]:
    """Parse snapshot bytes back into nodes; raises
    :class:`MetadataError` on anything :func:`dump_snapshot` did not
    write."""
    blob = bytes(blob)
    total = len(blob)
    if total < _HEAD.size:
        raise MetadataError("metadata snapshot truncated")
    magic, version, count = _HEAD.unpack_from(blob)
    if magic != _MAGIC:
        raise MetadataError("not a metadata snapshot")
    if version != SNAPSHOT_VERSION:
        raise MetadataError(f"unsupported snapshot version {version}")
    nodes = []
    pos, previous = _HEAD.size, b""
    for _ in range(count):  # each pass consumes bytes or raises
        end = pos + _LEN.size
        if end > total:
            raise MetadataError("metadata snapshot truncated")
        pos, end = end, end + _LEN.unpack_from(blob, pos)[0]
        if end > total:
            raise MetadataError("metadata snapshot truncated")
        raw = blob[pos:end]
        if raw <= previous:
            raise MetadataError("metadata snapshot nodes out of order")
        nodes.append(decode_node(raw))
        pos, previous = end, raw
    if pos != total:
        raise MetadataError("trailing bytes after metadata snapshot")
    return nodes


def save_tree(tree: MetadataTree, path: str | Path) -> int:
    """Write a tree snapshot to disk; returns the node count.

    Atomic: the bytes go to a sibling temp file first and replace the
    snapshot in one rename, so a crash mid-write leaves the previous
    snapshot intact instead of a torn file.
    """
    nodes = list(tree)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(dump_snapshot(nodes))
    os.replace(tmp, target)
    return len(nodes)


def quarantine_path(path: str | Path) -> Path:
    """Where :func:`load_tree` sets aside an unreadable snapshot."""
    target = Path(path)
    return target.with_name(target.name + ".corrupt")


def load_tree(tree: MetadataTree, path: str | Path) -> int:
    """Merge a disk snapshot into a tree; returns newly added nodes.

    A missing file is not an error (fresh client): returns 0.  A
    corrupt or truncated snapshot is *quarantined* — renamed aside to
    :func:`quarantine_path` for inspection — and also returns 0: the
    snapshot is only ever a convenience copy of metadata that lives at
    the CSPs, so the correct response to damage is a full sync, not a
    crash loop.
    """
    target = Path(path)
    if not target.exists():
        return 0
    try:
        nodes = load_snapshot(target.read_bytes())
    except MetadataError:
        os.replace(target, quarantine_path(target))
        return 0
    return tree.merge(nodes)
