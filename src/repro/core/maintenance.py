"""Maintenance operations: import, history pruning, garbage collection.

These implement the extensions the paper's trial users asked for
(Section 7.5: "One user ... suggested adding a feature to import files
already stored at CSPs") plus the storage-reclamation tooling any
long-lived deployment needs:

* :func:`import_object` — adopt a plain object sitting at one provider
  into CYRUS (download it once, then chunk/encode/scatter as usual);
* :func:`prune_history` — drop old versions of a file from the
  metadata, keeping the newest K;
* :func:`collect_garbage` — delete chunk shares referenced by *no*
  remaining metadata node.

Pruning and collection change shared state destructively, so — like
``git gc`` — they must run while no other client is writing; the
functions document (and where possible check) their preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.naming import chunk_share_object_name
from repro.core.transfer import (
    OpKind,
    OpResult,
    TransferEngine,
    TransferOp,
    list_objects,
)
from repro.errors import CSPError, MetadataError
from repro.metadata import MetadataStore, MetadataTree
from repro.metadata.codec import metadata_share_name


@dataclass
class GCReport:
    """What a collection pass removed."""

    chunks_scanned: int
    chunks_deleted: int
    shares_deleted: int
    bytes_reclaimed: int


@dataclass
class PruneReport:
    """What a history prune removed."""

    nodes_deleted: int
    versions_kept: int


def import_object(client, csp_id: str, object_name: str,
                  target_name: str | None = None):
    """Adopt an existing plain object from one provider into CYRUS.

    The object is downloaded from the named provider as-is, stored
    through the normal upload pipeline (chunked, deduplicated, encoded,
    scattered), and left in place at the source — deleting the original
    is the user's decision.

    Returns the :class:`repro.core.uploader.UploadReport`.
    """
    listed = list_objects(client.engine, [csp_id], object_name)
    size = next((info.size for info in listed.get(csp_id, ())
                 if info.name == object_name), 0)
    results = client.engine.execute(
        [TransferOp(kind=OpKind.GET, csp_id=csp_id, name=object_name,
                    size=size)]
    )
    if not results[0].ok:
        raise CSPError(
            f"cannot import {object_name!r} from {csp_id}: "
            f"{results[0].error}",
            csp_id=csp_id,
        )
    name = target_name or object_name
    return client.put(name, results[0].data, sync_first=True)


def prune_history(
    tree: MetadataTree,
    store: MetadataStore,
    engine: TransferEngine,
    name: str,
    keep_versions: int = 1,
) -> PruneReport:
    """Delete all but the newest ``keep_versions`` versions of a file.

    Only the single current lineage is pruned; unresolved conflicts
    (multiple heads) must be resolved first, since pruning would have to
    pick a branch to destroy.  The pruned nodes' metadata shares are
    deleted at every reachable slot of the file's metadata group, and
    the nodes are dropped from the local tree; chunk shares are
    reclaimed separately by :func:`collect_garbage`.
    """
    if keep_versions < 1:
        raise MetadataError("must keep at least one version")
    heads = tree.heads(name)
    if len(heads) > 1:
        raise MetadataError(
            f"{name!r} has {len(heads)} heads; resolve conflicts before "
            f"pruning"
        )
    chain = tree.history(tree.latest(name).node_id)
    doomed = chain[keep_versions:]
    if not doomed:
        return PruneReport(nodes_deleted=0, versions_kept=len(chain))
    # survivors keep their ids; the oldest kept node's parent reference
    # simply dangles, which history() treats as the start of history
    _delete_nodes(tree, store, engine, doomed)
    return PruneReport(
        nodes_deleted=len(doomed), versions_kept=keep_versions
    )


def _delete_nodes(tree: MetadataTree, store: MetadataStore,
                  engine: TransferEngine, nodes) -> None:
    engine.execute([
        TransferOp(kind=OpKind.DELETE, csp_id=provider.csp_id,
                   name=metadata_share_name(node.node_id, index))
        for node in nodes
        for index, provider in enumerate(store.slots_for(node.name))
    ])  # failures tolerated: share may not exist
    for node in nodes:
        tree.remove(node.node_id)


def sweep_chunks(client, entries) -> list[OpResult]:
    """Delete the recorded share placements of every ``gc`` entry
    (``{"chunk": id, "placements": [[index, csp], ...]}``) whose chunk
    no tree node references, in one batch, and forget those chunks.

    Returns the batch's results; failures are tolerated (a share may
    be gone already, or its CSP unknown to this client).
    """
    table = client.chunk_table
    doomed = []
    ops = []
    for entry in entries:
        chunk_id = str(entry.get("chunk", ""))
        if not chunk_id or table.references(chunk_id):
            continue  # resurrected (or garbage record): leave it alone
        doomed.append(chunk_id)
        for placement in entry.get("placements", ()):
            try:
                index, csp_id = int(placement[0]), str(placement[1])
                client.cloud.status_of(csp_id)
            except (KeyError, TypeError, ValueError, IndexError):
                continue
            ops.append(TransferOp(
                kind=OpKind.DELETE, csp_id=csp_id,
                name=chunk_share_object_name(index, chunk_id),
                chunk_id=chunk_id,
            ))
    results = client.engine.execute(ops) if ops else []
    for chunk_id in doomed:
        table.forget(chunk_id)
    return results


def collect_garbage(client) -> GCReport:
    """Delete chunk shares that no remaining metadata node references.

    Syncs first so the table's reference counts reflect every published
    version, then deletes the share objects of the chunks no node
    references at their recorded providers, in one batch.
    """
    client.sync()
    table = client.chunk_table
    doomed = [table.get(chunk_id) for chunk_id in table.unreferenced()]
    share_sizes = {location.chunk_id: max(1, -(-location.size // location.t))
                   for location in doomed}
    entries = [
        {
            "chunk": location.chunk_id,
            "placements": [[index, csp_id]
                           for index, csp_id in location.placements],
        }
        for location in doomed
    ]
    # journal the doomed set (with placements) before the first delete:
    # a crashed pass replays as a roll-forward of exactly these deletions
    journal = getattr(client, "journal", None)
    intent_id = None
    if journal is not None and doomed:
        intent_id = journal.begin("gc", chunks=entries)
    deleted = [r.op.chunk_id for r in sweep_chunks(client, entries) if r.ok]
    if intent_id is not None:
        journal.commit(intent_id)
    return GCReport(
        chunks_scanned=len(table) + len(doomed),
        chunks_deleted=len(doomed),
        shares_deleted=len(deleted),
        bytes_reclaimed=sum(share_sizes[c] for c in deleted),
    )
