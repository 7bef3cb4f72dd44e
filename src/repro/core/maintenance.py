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
  remaining metadata node;
* :func:`reclaim` — the one path for every object a client deletes.
  Its callers are the prune, the collection and its ``gc`` replay, the
  put/delete rollback and ``migrate`` replay of
  :mod:`repro.recovery.recover`, and the scrub's orphan cleanup.

Pruning and collection change shared state destructively, so — like
``git gc`` — they must run while no other client is writing; the
functions document (and where possible check) their preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.naming import chunk_share_object_name
from repro.core.transfer import OpKind, OpResult, TransferOp, list_objects
from repro.errors import CSPError, MetadataError
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


def prune_history(client, name: str, keep_versions: int = 1) -> PruneReport:
    """Delete all but the newest ``keep_versions`` versions of a file.

    Only the single current lineage is pruned; unresolved conflicts
    (multiple heads) must be resolved first, since pruning would have to
    pick a branch to destroy.  The pruned nodes' metadata copies at the
    slots of the file's metadata group are reclaimed, and the nodes are
    dropped from the local tree; chunk shares are reclaimed separately
    by :func:`collect_garbage`.
    """
    if keep_versions < 1:
        raise MetadataError("must keep at least one version")
    tree = client.tree
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
    reclaim(client, [
        (provider.csp_id, metadata_share_name(node.node_id, index), None)
        for node in doomed
        for index, provider in enumerate(client.store.slots_for(node.name))
    ])  # failures tolerated: share may not exist
    for node in doomed:
        tree.remove(node.node_id)
    return PruneReport(
        nodes_deleted=len(doomed), versions_kept=keep_versions
    )


def reclaim(client, objects) -> tuple[list[OpResult], bool]:
    """Delete ``objects`` -- ``(csp, object name, chunk id or None)``
    triples -- in one ``DELETE`` batch, under the one rule: never a
    share of a chunk the table holds (``is_stored``, what dedup trusts:
    shares are content-addressed, so live whichever client wrote them),
    and never anything at a CSP the client does not know or has REMOVED.

    Returns the results and whether the batch came back clean: every
    op ok or ``ObjectNotFoundError`` (already gone).
    """
    table = client.chunk_table
    ops = [
        TransferOp(kind=OpKind.DELETE, csp_id=csp_id, name=name,
                   chunk_id=chunk_id)
        for csp_id, name, chunk_id in objects
        if client.cloud.keeps(csp_id)
        and (chunk_id is None or not table.is_stored(chunk_id))
    ]
    results = client.engine.execute(ops) if ops else []
    return results, all(r.ok or r.error_type == "ObjectNotFoundError"
                        for r in results)


def sweep_chunks(client, entries) -> list[tuple[str, str, str]]:
    """Forget every chunk of the ``gc`` entries (``{"chunk": id,
    "placements": [[index, csp], ...]}``) that no tree node references;
    returns the recorded placements as objects to :func:`reclaim` (a
    resurrected chunk stays stored, so the rule keeps its shares).
    """
    table = client.chunk_table
    objects = []
    for entry in entries:
        chunk_id = str(entry.get("chunk", ""))
        if not chunk_id:
            continue  # a garbage record names nothing
        if not table.references(chunk_id):
            table.forget(chunk_id)
        for placement in entry.get("placements", ()):
            try:
                index, csp_id = int(placement[0]), str(placement[1])
            except (TypeError, ValueError, IndexError):
                continue
            objects.append((csp_id, chunk_share_object_name(index, chunk_id),
                            chunk_id))
    return objects


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
    results, clean = reclaim(client, sweep_chunks(client, entries))
    deleted = [r.op.chunk_id for r in results if r.ok]
    if intent_id is not None and clean:
        # a failed delete leaves the intent open: recovery re-runs it
        journal.commit(intent_id)
    return GCReport(
        chunks_scanned=len(table) + len(doomed),
        chunks_deleted=len(doomed),
        shares_deleted=len(deleted),
        bytes_reclaimed=sum(share_sizes[c] for c in deleted),
    )
