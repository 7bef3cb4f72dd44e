"""Metadata serialization, share naming, and the share envelope.

Nodes serialise to canonical JSON (so node bytes — and therefore the
shares cut from them — are identical across clients).  Metadata share
object names embed the node id and share index, ``md-<node_id>-<idx>``:
unlike chunk shares, metadata shares must be *discoverable* by listing
("Changes at CSPs can be seen by looking up the list of metadata files
stored in the cloud", Section 5.4), and a node id is itself a hash that
reveals nothing about file contents.

Stored shares are wrapped in an authenticated **envelope** (v2 frame):
a magic marker, a publish stamp, the plaintext chunk size, a SHA-1 over
the share payload (detects a provider that rotted or tampered with the
bytes it returns), and a SHA-1 over the node plaintext (detects a
provider that forged a self-consistent envelope around wrong share
bytes, and groups shares of the same encoding when an interrupted
publish leaves slots disagreeing).  The legacy v1 frame — a bare
8-byte chunk-size header — still parses, with the same backward-compat
discipline as the optional 6th chunkMap column: pre-envelope shares
are unverifiable-but-usable, never rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.erasure import Share
from repro.errors import MetadataError
from repro.metadata.node import ChunkRecord, MetadataNode, ShareRecord
from repro.util.hashing import sha1_hex
from repro.util.serialization import canonical_dumps, canonical_loads

#: Format version embedded in every encoded node.
CODEC_VERSION = 1

#: Listing prefix for metadata shares.
METADATA_PREFIX = "md-"

#: Magic marker opening a v2 (authenticated) share frame.  A legacy v1
#: frame opens with an 8-byte big-endian chunk size whose first bytes
#: are zero for any real metadata node, so the two cannot collide.
FRAME_MAGIC = b"CYM2"

_DIGEST_LEN = 20  # raw SHA-1


def encode_node(node: MetadataNode) -> bytes:
    """Canonical byte encoding of a metadata node."""
    doc = {
        "v": CODEC_VERSION,
        "fileMap": {
            "id": node.file_id,
            "prevId": node.prev_id,
            "clientId": node.client_id,
            "name": node.name,
            "deleted": node.deleted,
            "modified": node.modified,
            "size": node.size,
        },
        # share digests ride as an optional 6th element so pre-digest
        # readers (and nodes) keep the exact 5-element row bytes
        "chunkMap": [
            [c.chunk_id, c.offset, c.size, c.t, c.n]
            + ([list(c.share_digests)] if c.share_digests else [])
            for c in node.chunks
        ],
        "shareMap": [[s.chunk_id, s.index, s.csp_id] for s in node.shares],
    }
    return canonical_dumps(doc)


def decode_node(data: bytes) -> MetadataNode:
    """Inverse of :func:`encode_node`."""
    try:
        doc = canonical_loads(data)
        if doc.get("v") != CODEC_VERSION:
            raise MetadataError(f"unsupported metadata version {doc.get('v')!r}")
        fm = doc["fileMap"]
        return MetadataNode(
            file_id=fm["id"],
            prev_id=fm["prevId"],
            client_id=fm["clientId"],
            name=fm["name"],
            deleted=fm["deleted"],
            modified=fm["modified"],
            size=fm["size"],
            chunks=tuple(
                ChunkRecord(
                    chunk_id=c[0], offset=c[1], size=c[2], t=c[3], n=c[4],
                    share_digests=tuple(c[5]) if len(c) > 5 else (),
                )
                for c in doc["chunkMap"]
            ),
            shares=tuple(
                ShareRecord(chunk_id=s[0], index=s[1], csp_id=s[2])
                for s in doc["shareMap"]
            ),
        )
    except MetadataError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MetadataError(f"corrupt metadata node: {exc}") from exc


@dataclass(frozen=True)
class MetaShareFrame:
    """One unframed metadata share as stored at a provider.

    Attributes:
        payload: The share bytes (the secret-shared node slice).
        chunk_size: Plaintext length the sharer must truncate to.
        stamp: Publish generation (milliseconds of the publisher's
            clock; 0 for legacy frames and clock-less stores).  Higher
            stamps are preferred when shares of one node id disagree —
            an interrupted publish leaves stale slots behind.
        share_digest: SHA-1 hex of ``payload``, or None for legacy v1
            frames (unverifiable-but-usable).
        node_digest: SHA-1 hex of the node plaintext this share was cut
            from, or None for legacy frames.  Shares are only ever
            combined within one node-digest group.
    """

    payload: bytes
    chunk_size: int
    stamp: int = 0
    share_digest: str | None = None
    node_digest: str | None = None

    @property
    def authenticated(self) -> bool:
        return self.node_digest is not None

    def payload_intact(self) -> bool:
        """Does the payload match its own digest?  (Always True for
        legacy frames — there is nothing to check against.)"""
        if self.share_digest is None:
            return True
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
    """Parse either frame version; raises MetadataError on garbage."""
    if blob[:4] == FRAME_MAGIC:
        header = 4 + 8 + 8 + 2 * _DIGEST_LEN
        if len(blob) < header:
            raise MetadataError("metadata share frame truncated")
        stamp = int.from_bytes(blob[4:12], "big")
        size = int.from_bytes(blob[12:20], "big")
        share_digest = blob[20:20 + _DIGEST_LEN].hex()
        node_digest = blob[20 + _DIGEST_LEN:header].hex()
        return MetaShareFrame(
            payload=blob[header:], chunk_size=size, stamp=stamp,
            share_digest=share_digest, node_digest=node_digest,
        )
    if len(blob) < 8:
        raise MetadataError("metadata share too short")
    return MetaShareFrame(
        payload=blob[8:], chunk_size=int.from_bytes(blob[:8], "big"),
    )


def metadata_share_name(node_id: str, index: int) -> str:
    """Object name for one metadata share."""
    if len(node_id) != 40:
        raise MetadataError(f"node id must be 40 hex chars, got {node_id!r}")
    if index < 0:
        raise MetadataError(f"share index must be non-negative, got {index}")
    return f"{METADATA_PREFIX}{node_id}-{index:03d}"


#: Where a share name carries its node id: sync drops the entries of
#: nodes it already holds on this slice, without parsing the name.
NODE_ID_SLICE = slice(len(METADATA_PREFIX), len(METADATA_PREFIX) + 40)


def parse_metadata_share_name(name: str) -> tuple[str, int]:
    """Extract ``(node_id, index)``; raises MetadataError on other names."""
    if not name.startswith(METADATA_PREFIX):
        raise MetadataError(f"not a metadata share name: {name!r}")
    body = name[len(METADATA_PREFIX):]
    node_id, _, idx = body.rpartition("-")
    if len(node_id) != 40 or not idx.isdigit():
        raise MetadataError(f"malformed metadata share name: {name!r}")
    return node_id, int(idx)
