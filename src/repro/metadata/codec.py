"""Metadata serialization, share naming, and the share envelope.

A node encodes to one compact, canonical binary form (big-endian,
fixed-width :mod:`struct` fields), so node bytes — and therefore the
shares cut from them — are identical across clients.  The same bytes
are what the metadata slots, the meta-repair intent (as hex) and the
local tree snapshot hold::

    header   version u8 (CODEC_VERSION), flags u8 (bit 0: deleted),
             file id 20 B, prev id 20 B, modified f64, size u64,
             len(name) u16, len(client id) u16, CSPs u8, chunks u32,
             shares u32
    name, client id                      UTF-8
    CSP table    per CSP: len u8 + UTF-8, in order of first use
    ChunkMap     per chunk: chunk id 20 B, offset u64, size u32, t u8, n u8
    digests      every chunk's n share digests, 20 B each, in row order
    ShareMap     per share: chunk row u32, index u8, CSP-table slot u8

The decoder fails closed: every length is bounded before it is sliced,
and truncation, trailing bytes, invalid UTF-8, an unknown version or
flag, a non-finite ``modified``, a ChunkMap that does not tile
``[0, size)`` in order with non-empty chunks, an out-of-range chunk row
or CSP slot, a non-canonical table or row reference, and everything
:class:`MetadataNode` refuses raise :class:`MetadataError`.  What it
accepts re-encodes to exactly the bytes it was given.

Metadata share object names embed the node id and share index,
``md-<node_id>-<idx>``: unlike chunk shares, metadata shares must be
*discoverable* by listing ("Changes at CSPs can be seen by looking up
the list of metadata files stored in the cloud", Section 5.4), and a
node id is itself a hash that reveals nothing about file contents.

Stored shares are wrapped in an authenticated **envelope** (v2 frame):
a magic marker, a publish stamp, the plaintext chunk size, a SHA-1 over
the share payload (detects a provider that rotted or tampered with the
bytes it returns), and a SHA-1 over the node plaintext (detects a
provider that forged a self-consistent envelope around wrong share
bytes, and groups shares of the same encoding when an interrupted
publish leaves slots disagreeing).  It is the only frame: a blob that
does not open with the magic marker is rejected like any other garbage.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

from repro.erasure import Share
from repro.errors import MetadataError
from repro.metadata.node import ChunkRecord, MetadataNode, ShareRecord
from repro.util.hashing import sha1_hex

#: Format version embedded in every encoded node.
CODEC_VERSION = 2

#: Listing prefix for metadata shares.
METADATA_PREFIX = "md-"

#: Magic marker opening a v2 (authenticated) share frame.
FRAME_MAGIC = b"CYM2"

_DIGEST_LEN = 20  # raw SHA-1
_HEADER_LEN = len(FRAME_MAGIC) + 8 + 8 + 2 * _DIGEST_LEN

# version, flags, file id, prev id, modified, size, len(name),
# len(client id), CSP-table entries, chunks, shares
_NODE_HEAD = struct.Struct(">BB20s20sdQHHBII")
# chunk id, offset, size, t, n
_CHUNK_ROW = struct.Struct(">20sQIBB")
# chunk row, share index, CSP-table slot
_SHARE_ROW = struct.Struct(">IBB")
_DELETED = 1  # the one flag bit
_HEX_LEN = 2 * _DIGEST_LEN


def _raw_ids(hex_ids: list[str]) -> bytes:
    """The raw 20-byte forms of SHA-1 hex ids, concatenated; refuses
    anything but 40 lowercase hex characters per id (which alone
    round-trip through :meth:`bytes.hex`)."""
    joined = "".join(hex_ids)
    raw = bytes.fromhex(joined)
    if raw.hex() != joined or {*map(len, hex_ids)} - {_HEX_LEN}:
        raise MetadataError("ids and digests must be 40 lowercase hex chars")
    return raw


def encode_node(node: MetadataNode) -> bytes:
    """Canonical byte encoding of a metadata node.

    Raises :class:`MetadataError` for a node the format cannot carry: a
    non-hex id or digest, a non-finite ``modified``, an empty CSP id, or
    a field wider than its slot.
    """
    try:
        chunks, shares = node.chunks, node.shares
        if not math.isfinite(node.modified):
            raise MetadataError("modified must be finite")
        digests = [d for c in chunks for d in c.share_digests]
        raw = _raw_ids([node.file_id, node.prev_id,
                        *(c.chunk_id for c in chunks), *digests])
        rows: dict[str, int] = {}  # chunk id -> its first row
        for row, chunk in enumerate(chunks):
            rows.setdefault(chunk.chunk_id, row)
        slots: dict[str, int] = {}  # CSP id -> table slot, first use first
        share_rows = [
            _SHARE_ROW.pack(rows[s.chunk_id], s.index,
                            slots.setdefault(s.csp_id, len(slots)))
            for s in shares
        ]
        table = [csp_id.encode("utf-8") for csp_id in slots]
        if not all(table):
            raise MetadataError("CSP id must be non-empty")
        name = node.name.encode("utf-8")
        client = node.client_id.encode("utf-8")
        parts = [
            _NODE_HEAD.pack(CODEC_VERSION, _DELETED if node.deleted else 0,
                            raw[:20], raw[20:40], node.modified, node.size,
                            len(name), len(client), len(slots), len(chunks),
                            len(shares)),
            name, client,
        ]
        for encoded in table:
            parts += (bytes((len(encoded),)), encoded)
        at = 40
        for chunk in chunks:
            parts.append(_CHUNK_ROW.pack(raw[at:at + 20], chunk.offset,
                                         chunk.size, chunk.t, chunk.n))
            at += 20
        parts.append(raw[at:])
        parts += share_rows
        return b"".join(parts)
    except MetadataError:
        raise
    except (struct.error, ValueError, TypeError, AttributeError,
            OverflowError) as exc:
        raise MetadataError(f"cannot encode metadata node: {exc}") from exc


def decode_node(data: bytes) -> MetadataNode:
    """Inverse of :func:`encode_node`; raises :class:`MetadataError`
    on anything it did not produce."""
    try:
        return _decode(bytes(data))
    except MetadataError:
        raise
    except (struct.error, ValueError, TypeError) as exc:
        raise MetadataError(f"corrupt metadata node: {exc}") from exc


def _truncated() -> MetadataError:
    return MetadataError("metadata node truncated")


def _decode(data: bytes) -> MetadataNode:
    total = len(data)
    if total < _NODE_HEAD.size:
        raise _truncated()
    (version, flags, file_id, prev_id, modified, size, name_len,
     client_len, n_csps, n_chunks, n_shares) = _NODE_HEAD.unpack_from(data)
    if version != CODEC_VERSION:
        raise MetadataError(f"unsupported metadata version {version}")
    if flags & ~_DELETED:
        raise MetadataError(f"unknown node flags {flags:#04x}")
    if not math.isfinite(modified):
        raise MetadataError("modified must be finite")
    pos = _NODE_HEAD.size
    end = pos + name_len + client_len
    if end > total:
        raise _truncated()
    name = data[pos:pos + name_len].decode("utf-8")
    client_id = data[pos + name_len:end].decode("utf-8")
    pos = end
    csps = []
    for _ in range(n_csps):
        if pos >= total:
            raise _truncated()
        end = pos + 1 + data[pos]
        if end == pos + 1:
            raise MetadataError("empty CSP id")
        if end > total:
            raise _truncated()
        csps.append(data[pos + 1:end].decode("utf-8"))
        pos = end
    if len(set(csps)) != n_csps:
        raise MetadataError("duplicate CSP id in the CSP table")
    end = pos + n_chunks * _CHUNK_ROW.size
    if end > total:
        raise _truncated()
    chunk_rows = list(_CHUNK_ROW.iter_unpack(data[pos:end]))
    pos = end
    end = pos + _DIGEST_LEN * sum(row[4] for row in chunk_rows)
    if end > total:
        raise _truncated()
    hexed = data[pos:end].hex()
    digests = [hexed[i:i + _HEX_LEN] for i in range(0, len(hexed), _HEX_LEN)]
    pos, end = end, end + n_shares * _SHARE_ROW.size
    if end > total:
        raise _truncated()
    if end < total:
        raise MetadataError("trailing bytes after metadata node")
    chunks = []
    first_row: dict[str, int] = {}
    at = tiled = 0  # digests consumed; bytes the rows cover so far
    for row, (raw_id, offset, chunk_size, t, n) in enumerate(chunk_rows):
        if offset != tiled or not chunk_size:
            raise MetadataError(f"ChunkMap row {row} breaks the tiling")
        tiled += chunk_size
        chunk_id = raw_id.hex()
        first_row.setdefault(chunk_id, row)
        chunks.append(ChunkRecord(chunk_id, offset, chunk_size, t, n,
                                  tuple(digests[at:at + n])))
        at += n
    if tiled != size:
        raise MetadataError(f"ChunkMap covers {tiled} of {size} bytes")
    shares = []
    used = 0  # CSP-table slots seen so far; a new one must be the next
    for row, index, slot in _SHARE_ROW.iter_unpack(data[pos:]):
        if row >= n_chunks:
            raise MetadataError(f"share row names chunk row {row} of "
                                f"{n_chunks}")
        if slot > used or slot >= n_csps:
            raise MetadataError(f"share row names CSP slot {slot} "
                                f"out of order or range")
        used += slot == used
        chunk_id = chunks[row].chunk_id
        if first_row[chunk_id] != row:
            raise MetadataError("share row names a repeated chunk row")
        shares.append(ShareRecord(chunk_id, index, csps[slot]))
    if used != n_csps:
        raise MetadataError("CSP table holds an unused entry")
    return MetadataNode(file_id.hex(), prev_id.hex(), client_id, name,
                        bool(flags), modified, size, tuple(chunks),
                        tuple(shares))


@dataclass(frozen=True)
class MetaShareFrame:
    """One unframed metadata share as stored at a provider.

    Attributes:
        payload: The share bytes (the secret-shared node slice).
        chunk_size: Plaintext length the sharer must truncate to.
        stamp: Publish generation (milliseconds of the publisher's
            clock; 0 for clock-less stores).  Higher stamps are
            preferred when shares of one node id disagree — an
            interrupted publish leaves stale slots behind.
        share_digest: SHA-1 hex of ``payload``.
        node_digest: SHA-1 hex of the node plaintext this share was cut
            from.  Shares are only ever combined within one node-digest
            group.
    """

    payload: bytes
    chunk_size: int
    stamp: int
    share_digest: str
    node_digest: str

    def payload_intact(self) -> bool:
        """Does the payload match its own digest?"""
        return sha1_hex(self.payload) == self.share_digest

    def to_share(self, index: int, t: int, n: int) -> Share:
        return Share(index=index, data=self.payload, t=t, n=n,
                     chunk_size=self.chunk_size)


def pack_meta_share(payload: bytes, chunk_size: int, node_digest: str,
                    stamp: int = 0) -> bytes:
    """Frame one share in the authenticated v2 envelope."""
    if len(node_digest) != 2 * _DIGEST_LEN:
        raise MetadataError(f"node digest must be SHA-1 hex, got {node_digest!r}")
    return (
        FRAME_MAGIC
        + max(0, int(stamp)).to_bytes(8, "big")
        + chunk_size.to_bytes(8, "big")
        + bytes.fromhex(sha1_hex(payload))
        + bytes.fromhex(node_digest)
        + payload
    )


def unpack_meta_share(blob: bytes) -> MetaShareFrame:
    """Parse a v2 frame; raises MetadataError on anything else."""
    if blob[:4] != FRAME_MAGIC:
        raise MetadataError("metadata share is not a CYM2 frame")
    if len(blob) < _HEADER_LEN:
        raise MetadataError("metadata share frame truncated")
    return MetaShareFrame(
        payload=blob[_HEADER_LEN:],
        chunk_size=int.from_bytes(blob[12:20], "big"),
        stamp=int.from_bytes(blob[4:12], "big"),
        share_digest=blob[20:20 + _DIGEST_LEN].hex(),
        node_digest=blob[20 + _DIGEST_LEN:_HEADER_LEN].hex(),
    )


def metadata_share_name(node_id: str, index: int) -> str:
    """Object name for one metadata share."""
    if len(node_id) != 40:
        raise MetadataError(f"node id must be 40 hex chars, got {node_id!r}")
    if index < 0:
        raise MetadataError(f"share index must be non-negative, got {index}")
    return f"{METADATA_PREFIX}{node_id}-{index:03d}"


#: Where a share name carries its node id: sync drops a listed name it
#: has not settled yet on this slice when the tree holds the node,
#: without parsing the name.
NODE_ID_SLICE = slice(len(METADATA_PREFIX), len(METADATA_PREFIX) + 40)


#: A share name's shape: lowercase hex node id, ASCII decimal index.
_SHARE_NAME = re.compile(
    re.escape(METADATA_PREFIX) + r"([0-9a-f]{40})-([0-9]{3,})\Z")


def parse_metadata_share_name(name: str) -> tuple[str, int]:
    """Extract ``(node_id, index)``.  Fails closed: any name that
    :func:`metadata_share_name` would not produce (a planted object, a
    non-ASCII digit, a padded index) raises MetadataError."""
    match = _SHARE_NAME.match(name)
    if match is not None:
        node_id, index = match[1], int(match[2])
        if metadata_share_name(node_id, index) == name:
            return node_id, index
    raise MetadataError(f"not a metadata share name: {name!r}")
