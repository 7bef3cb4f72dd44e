"""The synchronization service (paper Section 5.4).

Clients discover remote changes by listing the metadata objects at the
fixed metadata CSPs — every upload creates a new metadata node, so new
node ids in the listing are exactly the changes.  The listing is one
``LIST`` engine batch over the member slots not dark
(:func:`meta_listing`: a dark or removed slot is never listed, fetched
or published to).
A :class:`SyncService` remembers the listed names whose node its tree
holds (*settled* names), so a sync pays one set probe per settled
entry; only a name it has not settled yet is sliced for its node id and
probed against the tree.  New nodes are fetched from every listed slot
by :func:`fetch_nodes` — the one metadata read, which the scrub and
debt repair make too — decoded through the verified assembler (corrupt
shares are attributed to their CSP, the highest verified version wins),
merged into the local tree (which folds them into its chunk table), and
checked for both conflict types.

Local change detection (the other half of the paper's sync service) is
:class:`LocalChangeDetector`: it compares last-modified times first and
hashes only when they moved, as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cloud import CyrusCloud
from repro.core.transfer import (
    OpKind,
    OpResult,
    TransferEngine,
    TransferOp,
    list_objects,
)
from repro.csp.base import ObjectInfo
from repro.errors import MetadataError
from repro.metadata import MetadataStore, MetadataTree
from repro.metadata.codec import (
    METADATA_PREFIX,
    NODE_ID_SLICE,
    parse_metadata_share_name,
)
from repro.metadata.conflicts import Conflict, conflicts_for_node
from repro.metadata.store import NodeAssembler
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


def meta_listing(engine: TransferEngine, cloud: CyrusCloud,
                 store: MetadataStore) -> dict[str, list[ObjectInfo]]:
    """One ``LIST`` batch over the store's metadata slots whose CSP is a
    member and not dark (the engine's health registry): csp -> its
    metadata objects.  A dark or removed slot is never listed; one that
    fails to answer is left out."""
    health = engine.health
    return list_objects(engine, [
        p.csp_id for p in store.providers
        if cloud.keeps(p.csp_id)
        and not (health is not None and health.dark(p.csp_id))
    ], METADATA_PREFIX)


def fetch_nodes(engine: TransferEngine, store: MetadataStore, wanted,
                missing=None) -> tuple[list[OpResult], dict[str, NodeAssembler]]:
    """The one metadata read: a single ``GET_META`` batch.

    ``wanted`` maps node id -> ``[(index, size, csp_id, object name)]``,
    the slots a listing shows holding the node; every one is fetched.
    ``missing`` maps node id -> slot indices listed without the object.
    Each result feeds its node's verified assembler: a share is added,
    ``ObjectNotFoundError`` notes the slot missing (a hole, owed a
    debt), any other failure notes it unreachable (no verdict).
    Returns the results and the unfinished assemblers by node id;
    ``finish()`` decodes, attributes liars and records debts.
    """
    missing = missing or {}
    assemblers = {node_id: store.assembler(node_id)
                  for node_id in sorted({*wanted, *missing})}
    for node_id, indices in missing.items():
        for index in indices:
            assemblers[node_id].note_missing(index)
    slots = [(node_id, index, csp_id, name, size)
             for node_id, listed in sorted(wanted.items())
             for index, size, csp_id, name in sorted(listed)]
    if not slots:
        return [], assemblers
    results = engine.execute([
        TransferOp(kind=OpKind.GET_META, csp_id=csp_id, name=name, size=size)
        for _node_id, _index, csp_id, name, size in slots
    ])
    for (node_id, index, csp_id, _name, _size), result in zip(slots, results):
        if result.ok:
            assemblers[node_id].add(index, csp_id, result.data)
        elif result.error_type == "ObjectNotFoundError":
            assemblers[node_id].note_missing(index)
        else:
            assemblers[node_id].note_unreachable(index)
    return results, assemblers


class SyncService:
    """Pull-based metadata synchronisation."""

    def __init__(
        self,
        store: MetadataStore,
        tree: MetadataTree,
        engine: TransferEngine,
        cloud: CyrusCloud,
    ):
        self.store = store
        self.tree = tree
        self.engine = engine
        self.cloud = cloud
        # listed object names whose node the tree holds, over every slot
        # (settledness depends only on the node id), valid while the
        # tree's removal count stays at ``_removals``
        self._settled: set[str] = set()
        self._removals = tree.removals

    def _remote_listing(self) -> dict[str, list[tuple[int, int, str, str]]]:
        """Unknown node_id -> [(index, size, csp_id, name)] over reachable
        slots.  A settled name costs one probe of a set of strings whose
        hashes are cached; a name not settled yet pays its id slice and
        a probe of the tree's ids, and settles when the tree holds its
        node.  Only the entries of unknown nodes are parsed."""
        if self.tree.removals != self._removals:
            # a removed node's names must be listed as new again
            self._settled.clear()
            self._removals = self.tree.removals
        settled = self._settled
        listing: dict[str, list[tuple[int, int, str, str]]] = {}
        known = self.tree.node_ids()
        pages = meta_listing(self.engine, self.cloud, self.store)
        for csp_id, infos in pages.items():
            for info in [i for i in infos if i.name not in settled]:
                name = info.name
                if name[NODE_ID_SLICE] in known:
                    settled.add(name)
                    continue
                try:
                    node_id, index = parse_metadata_share_name(name)
                except MetadataError:
                    continue
                listing.setdefault(node_id, []).append(
                    (index, info.size, csp_id, name)
                )
        if len(pages) < self.store.t:
            raise MetadataError(
                f"only {len(pages)} metadata providers reachable, "
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
        # every listed share of each new node: the verified decode must
        # see all slots, not the first t — up to m - t of them may be
        # corrupt, or stale leftovers of an interrupted publish, and only
        # the full view lets the assembler prefer the highest version
        results, assemblers = fetch_nodes(self.engine, self.store, wanted)
        # finish() verifies, attributes corrupt slots to their CSPs and
        # records repair debts; a node without a verified quorum this
        # round waits for the next sync
        decoded_nodes = [
            node for node in (assemblers[node_id].finish()
                              for node_id in sorted(assemblers))
            if node is not None
        ]
        # merge everything first: a fetched node's ancestor may itself be
        # new this round, and conflict traversal needs the full picture
        new_nodes = 0
        conflicts: list[Conflict] = []
        fresh = []
        for node in decoded_nodes:
            if self.tree.add(node):
                new_nodes += 1
                fresh.append(node)
        for node in fresh:
            conflicts.extend(conflicts_for_node(self.tree, node))
        # a node now in the tree settles the names it was listed under;
        # one that did not decode stays unsettled and is fetched again
        for node_id, shares in wanted.items():
            if node_id in self.tree:
                self._settled.update(name for *_, name in shares)
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
            fetch_results=tuple(results),
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
