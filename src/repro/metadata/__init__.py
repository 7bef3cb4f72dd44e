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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.metadata.chunktable": ("GlobalChunkTable",),
    "repro.metadata.codec": ("decode_node", "encode_node",
                             "metadata_share_name",
                             "parse_metadata_share_name"),
    "repro.metadata.conflicts": ("detect_conflicts",),
    "repro.metadata.node": ("ROOT_ID", "ChunkRecord", "MetadataNode",
                            "ShareRecord"),
    "repro.metadata.store": ("MetadataStore",),
    "repro.metadata.tree": ("MetadataTree",),
})
