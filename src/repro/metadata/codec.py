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
publish leaves slots disagreeing).  It is the only frame: a blob that
does not open with the magic marker is rejected like any other garbage.
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

#: Magic marker opening a v2 (authenticated) share frame.
FRAME_MAGIC = b"CYM2"

_DIGEST_LEN = 20  # raw SHA-1
_HEADER_LEN = len(FRAME_MAGIC) + 8 + 8 + 2 * _DIGEST_LEN


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
        "chunkMap": [
            [c.chunk_id, c.offset, c.size, c.t, c.n, list(c.share_digests)]
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
        if any(len(c) != 6 for c in doc["chunkMap"]):
            raise MetadataError("chunkMap rows must have 6 columns")
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
                    share_digests=tuple(c[5]),
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


def parse_metadata_share_name(name: str) -> tuple[str, int]:
    """Extract ``(node_id, index)``; raises MetadataError on other names."""
    if not name.startswith(METADATA_PREFIX):
        raise MetadataError(f"not a metadata share name: {name!r}")
    body = name[len(METADATA_PREFIX):]
    node_id, _, idx = body.rpartition("-")
    if len(node_id) != 40 or not idx.isdigit():
        raise MetadataError(f"malformed metadata share name: {name!r}")
    return node_id, int(idx)
