"""The synchronization service (paper Section 5.4).

Clients discover remote changes by listing the metadata objects at the
fixed metadata CSPs — every upload creates a new metadata node, so new
node ids in the listing are exactly the changes.  New nodes are fetched
from every listed slot, decoded through the verified assembler (corrupt
shares are attributed to their CSP, the highest verified version wins),
merged into the local tree, folded into the global chunk table, and
checked for both conflict types.

Local change detection (the other half of the paper's sync service) is
:class:`LocalChangeDetector`: it compares last-modified times first and
hashes only when they moved, as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.errors import CSPError, MetadataError
from repro.metadata import GlobalChunkTable, MetadataStore, MetadataTree
from repro.metadata.codec import (
    METADATA_PREFIX,
    NODE_ID_SLICE,
    parse_metadata_share_name,
)
from repro.metadata.conflicts import Conflict, conflicts_for_node
from repro.util.hashing import sha1_hex


@dataclass
class SyncReport:
    """Outcome of one metadata sync."""

    started: float
    finished: float
    new_nodes: int
    conflicts: tuple[Conflict, ...] = ()
    fetch_results: tuple[OpResult, ...] = ()

    @property
    def duration(self) -> float:
        return self.finished - self.started


class SyncService:
    """Pull-based metadata synchronisation."""

    def __init__(
        self,
        store: MetadataStore,
        tree: MetadataTree,
        chunk_table: GlobalChunkTable,
        engine: TransferEngine,
    ):
        self.store = store
        self.tree = tree
        self.chunk_table = chunk_table
        self.engine = engine

    def _remote_listing(self) -> dict[str, list[tuple[int, int, str, str]]]:
        """Unknown node_id -> [(index, size, csp_id, name)] over reachable
        slots.  An entry of a node the tree already holds is dropped on
        its id slice, before any parsing: a sync pays one set probe per
        listed entry and everything else per *new* entry."""
        listing: dict[str, list[tuple[int, int, str, str]]] = {}
        known = self.tree.node_ids()
        reachable = 0
        for provider in self.store.providers:
            try:
                infos = provider.list(prefix=METADATA_PREFIX)
            except CSPError:
                continue
            reachable += 1
            for info in [
                i for i in infos if i.name[NODE_ID_SLICE] not in known
            ]:
                try:
                    node_id, index = parse_metadata_share_name(info.name)
                except MetadataError:
                    continue
                listing.setdefault(node_id, []).append(
                    (index, info.size, provider.csp_id, info.name)
                )
        if reachable < self.store.t:
            raise MetadataError(
                f"only {reachable} metadata providers reachable, "
                f"need {self.store.t}"
            )
        return listing

    def sync(self) -> SyncReport:
        """Fetch unknown metadata nodes and merge them."""
        started = self.engine.clock.now()
        wanted = {
            node_id: shares
            for node_id, shares in self._remote_listing().items()
            if len(shares) >= self.store.t
        }
        all_results: list[OpResult] = []
        new_nodes = 0
        conflicts: list[Conflict] = []
        # one parallel batch: every listed share of each new node.  The
        # verified decode must see all slots, not the first t — up to
        # m - t of them may be corrupt, or stale leftovers of an
        # interrupted publish, and only the full view lets the
        # assembler prefer the highest verified version
        ops: list[TransferOp] = []
        op_index: dict[int, tuple[str, int, str]] = {}
        for node_id, shares in sorted(wanted.items()):
            for index, size, csp_id, name in sorted(shares):
                op_index[len(ops)] = (node_id, index, csp_id)
                ops.append(
                    TransferOp(
                        kind=OpKind.GET_META,
                        csp_id=csp_id,
                        name=name,
                        size=size,
                    )
                )
        results = self.engine.execute(ops)
        all_results.extend(results)
        assemblers: dict[str, object] = {}
        for i, result in enumerate(results):
            node_id, index, csp_id = op_index[i]
            asm = assemblers.setdefault(
                node_id, self.store.assembler(node_id)
            )
            if result.ok:
                asm.add(index, csp_id, result.data)
            elif result.error_type == "ObjectNotFoundError":
                asm.note_missing(index)
            else:
                asm.note_unreachable(index)
        decoded_nodes = []
        for node_id in sorted(assemblers):
            # finish() verifies, attributes corrupt slots to their CSPs
            # and records repair debts — identically serial or pooled
            node = assemblers[node_id].finish()
            if node is None:
                continue  # no verified quorum this round; next sync
            decoded_nodes.append(node)
        # merge everything first: a fetched node's ancestor may itself be
        # new this round, and conflict traversal needs the full picture
        fresh = []
        for node in decoded_nodes:
            if self.tree.add(node):
                new_nodes += 1
                fresh.append(node)
                self.chunk_table.record_node(node)
        for node in fresh:
            conflicts.extend(conflicts_for_node(self.tree, node))
        finished = self.engine.clock.now()
        # dedupe conflicts (the same divergence can surface per sibling)
        unique = {
            (c.kind, c.parent_id, c.node_ids): c for c in conflicts
        }
        return SyncReport(
            started=started,
            finished=finished,
            new_nodes=new_nodes,
            conflicts=tuple(unique.values()),
            fetch_results=tuple(all_results),
        )


@dataclass
class LocalChangeDetector:
    """Detect locally modified files (Section 5.4, first paragraph).

    "Changes at the local storage can be detected by regularly checking
    last-modified times and file hash values."  Callers feed the current
    local state; files whose mtime moved are re-hashed and reported when
    the content actually changed.
    """

    _seen: dict[str, tuple[float, str]] = field(default_factory=dict)

    def scan(self, files: dict[str, tuple[float, bytes]]) -> list[str]:
        """Names whose content changed since the previous scan.

        Args:
            files: name -> (mtime, content).
        """
        changed: list[str] = []
        for name, (mtime, content) in sorted(files.items()):
            prev = self._seen.get(name)
            if prev is not None and prev[0] == mtime:
                continue  # mtime unchanged: skip hashing entirely
            digest = sha1_hex(content)
            if prev is None or prev[1] != digest:
                changed.append(name)
            self._seen[name] = (mtime, digest)
        return changed
