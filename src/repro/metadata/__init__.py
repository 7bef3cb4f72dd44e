"""File metadata: version trees, conflict detection, scattered storage.

Every file stored in CYRUS has per-version metadata nodes holding the
paper's three tables (Figure 6): FileMap (identity, lineage, naming),
ChunkMap (how to rebuild the file from chunks) and ShareMap (where each
chunk's shares live).  Nodes form a logical tree under a dummy root;
children of a node are successive versions, and siblings are concurrent
— possibly conflicting — updates (Figure 8).  Metadata is itself secret-
shared across a fixed set of CSPs (Section 5.2), so no central metadata
server exists.
"""

from repro.metadata.chunktable import GlobalChunkTable
from repro.metadata.codec import (
    decode_node,
    encode_node,
    metadata_share_name,
    parse_metadata_share_name,
)
from repro.metadata.conflicts import Conflict, detect_conflicts
from repro.metadata.node import ROOT_ID, ChunkRecord, MetadataNode, ShareRecord
from repro.metadata.store import MetadataStore
from repro.metadata.tree import MetadataTree

__all__ = [
    "MetadataNode",
    "ChunkRecord",
    "ShareRecord",
    "ROOT_ID",
    "MetadataTree",
    "Conflict",
    "detect_conflicts",
    "encode_node",
    "decode_node",
    "metadata_share_name",
    "parse_metadata_share_name",
    "MetadataStore",
    "GlobalChunkTable",
]
