"""Startup replay of incomplete journal intents.

The commit protocol (data before metadata, journal before data) makes
a version visible only once its node sits at ``t`` metadata slots, so
the slots, not the journal, say whether a crashed put or delete was
published.  Its ``begin`` names the node id; after a fresh sync there
are two outcomes, each with one correct repair:

* **published** (the node is in the synced tree) — the operation is
  durable and visible to every other client; recovery acknowledges it
  (``commit``).  Its chunk debts need nothing: the uploader appended
  each as a barrier before the publish began.
* **not published** (every slot of the file's metadata group whose CSP
  is not removed answers one ``LIST`` for the node, and fewer than
  ``t`` copies are listed) — roll *back*: delete those copies, then
  every share object the intent planned, skipping chunks that the
  chunk table shows are referenced by some published node — those
  shares are live data, content-addressed and byte-identical no matter
  which client wrote them.

Anything else — a slot did not answer, or ``t`` copies are listed but
did not decode — leaves the intent incomplete for the next run: with
a partial view, a node at ``t`` slots may look unpublished.  A node
pruned after its put committed is gone from the slots; if that
``commit`` was lost, the replay rolls back only shares no node
references, which garbage collection would delete anyway.

``gc`` intents roll forward (re-delete the recorded doomed chunks that
are still unreferenced); ``migrate`` intents reconcile (adopt the moved
share into the chunk table if it landed, delete it if its chunk is no
longer known); ``meta-repair`` intents roll forward (re-publish the
journaled node verbatim — metadata slot names are fixed per node and
index, so the replay overwrites identical-meaning bytes and can never
duplicate a share).

Every repair action is idempotent — deletes tolerate already-gone
objects, re-publishes overwrite identical bytes, adoption is a set
insert — so a crash *during* recovery is recovered by simply running
recovery again.  The ``commit`` record is written only after an
intent's repairs all succeeded; an intent whose repair hits an
unreachable provider stays incomplete and is retried on the next run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cloud import CSPStatus
from repro.core.maintenance import sweep_chunks
from repro.core.transfer import OpKind, TransferOp, list_objects
from repro.errors import CyrusError
from repro.metadata.codec import METADATA_PREFIX, decode_node
from repro.obs import span_if
from repro.recovery.journal import BEGIN, IntentJournal

#: Metric names (mirrors the repro.obs constant style).
RECOVERY_ROLLFORWARD = "cyrus_recovery_rollforward_total"
RECOVERY_ROLLBACK = "cyrus_recovery_rollback_total"
RECOVERY_SHARES_DELETED = "cyrus_recovery_shares_deleted_total"


@dataclass
class RecoveryReport:
    """What one recovery pass found and repaired."""

    intents_total: int = 0
    rolled_forward: int = 0
    rolled_back: int = 0
    meta_republished: int = 0
    shares_deleted: int = 0
    placements_adopted: int = 0
    incomplete_remaining: int = 0
    actions: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return self.intents_total == 0


def recover_client(client, journal: IntentJournal | None = None) -> RecoveryReport:
    """Replay every incomplete intent against a restarted client.

    Pass the journal explicitly only when the client was built without
    one attached.  Safe to call any number of times: once an intent is
    committed it never replays again, so a second run is a no-op.
    """
    if journal is None:
        journal = getattr(client, "journal", None)
    if journal is None:
        raise CyrusError("recovery needs an intent journal")
    incomplete = journal.incomplete()
    report = RecoveryReport(intents_total=len(incomplete))
    if not incomplete:
        return report
    with span_if(client.obs, "recover", intents=len(incomplete)):
        # the reachability ground truth every rule below consults:
        # which chunks/nodes did reach published metadata
        try:
            client.sync()
        except CyrusError:
            pass  # degraded recovery: local tree is the best view we have
        actions: list[str] = []
        for intent in incomplete:
            try:
                if intent.op in ("put", "delete"):
                    done = _recover_publish(client, journal, intent,
                                            report, actions)
                elif intent.op == "gc":
                    done = _recover_gc(client, journal, intent,
                                       report, actions)
                elif intent.op == "migrate":
                    done = _recover_migrate(client, journal, intent,
                                            report, actions)
                elif intent.op == "meta-repair":
                    done = _recover_meta_repair(client, journal, intent,
                                                report, actions)
                else:
                    journal.commit(intent.intent_id, outcome="unknown-op")
                    actions.append(f"{intent.intent_id}: unknown op "
                                   f"{intent.op!r}, closed")
                    done = True
            except CyrusError as exc:
                actions.append(f"{intent.intent_id}: repair failed ({exc}); "
                               f"will retry next recovery")
                done = False
            if not done:
                report.incomplete_remaining += 1
        report.actions = tuple(actions)
    return report


# -- per-op repair rules ---------------------------------------------------


def _recover_publish(client, journal, intent, report, actions) -> bool:
    """Acknowledge a crashed put/delete whose node was published, or
    roll it back when its node provably reached fewer than t slots."""
    begin = intent.first(BEGIN).fields
    label = begin.get("name", "?")
    node_id = str(begin.get("node_id", ""))
    if node_id in client.tree:
        # durable before the crash; the sync above already folded it in
        journal.commit(intent.intent_id, outcome="rolled-forward")
        report.rolled_forward += 1
        client.obs.metrics.inc(RECOVERY_ROLLFORWARD, op=intent.op)
        actions.append(f"{intent.op} {label!r}: metadata was published; "
                       f"acknowledged")
        return True
    copies = _listed_copies(client, label, node_id)
    if copies is None or len(copies) >= client.store.t:
        actions.append(f"{intent.op} {label!r}: node {node_id[:12]} "
                       f"neither synced nor provably unpublished; will retry")
        return False
    # never visible: undo the partial publish and the scatter
    deleted, clean = _delete_unreferenced(client, intent.planned_shares(),
                                          copies)
    report.shares_deleted += deleted
    if deleted:
        client.obs.metrics.inc(RECOVERY_SHARES_DELETED, deleted)
    if not clean:
        actions.append(f"{intent.op} {label!r}: rollback incomplete "
                       f"(provider unreachable); will retry")
        return False
    journal.commit(intent.intent_id, outcome="rolled-back")
    report.rolled_back += 1
    client.obs.metrics.inc(RECOVERY_ROLLBACK, op=intent.op)
    actions.append(f"{intent.op} {label!r}: rolled back "
                   f"({deleted} orphaned share(s) deleted)")
    return True


def _listed_copies(client, name, node_id) -> list[tuple[str, str]] | None:
    """``(csp, object)`` of every metadata share of ``node_id`` that the
    slots of ``name``'s group list, or None unless every slot whose CSP
    is not removed answered."""
    slots = {p.csp_id for p in client.store.slots_for(name)
             if client.cloud.status_of(p.csp_id) is not CSPStatus.REMOVED}
    listing = list_objects(client.engine, sorted(slots),
                           f"{METADATA_PREFIX}{node_id}-")
    if len(listing) < len(slots):
        return None
    return [(csp, info.name) for csp, infos in sorted(listing.items())
            for info in infos]


def _delete_unreferenced(client, shares, objects=()) -> tuple[int, bool]:
    """Delete ``objects`` (``(csp, name)`` pairs) and the planned share
    objects whose chunks reached no published node, in one batch;
    returns (deleted count, all resolved)."""
    ops = [TransferOp(kind=OpKind.DELETE, csp_id=csp_id, name=name)
           for csp_id, name in objects]
    for chunk_id, csp_id, obj_name in shares:
        if client.chunk_table.is_stored(chunk_id):
            # another intent (or client) published this chunk — the
            # share bytes are content-addressed, hence identical: live
            continue
        try:
            client.cloud.status_of(csp_id)
        except KeyError:
            continue  # a CSP this client no longer knows
        ops.append(TransferOp(kind=OpKind.DELETE, csp_id=csp_id,
                              name=obj_name, chunk_id=chunk_id))
    if not ops:
        return 0, True
    results = client.engine.execute(ops)
    deleted = sum(1 for r in results if r.ok)
    clean = all(
        r.ok or r.error_type == "ObjectNotFoundError" for r in results
    )
    return deleted, clean


def _recover_gc(client, journal, intent, report, actions) -> bool:
    """Re-run the recorded deletions of a crashed collection pass."""
    begin = intent.first(BEGIN)
    results = sweep_chunks(client, begin.fields.get("chunks", ()))
    deleted = sum(1 for r in results if r.ok)
    clean = all(r.ok or r.error_type == "ObjectNotFoundError"
                for r in results)
    report.shares_deleted += deleted
    if deleted:
        client.obs.metrics.inc(RECOVERY_SHARES_DELETED, deleted)
    if not clean:
        actions.append("gc: re-deletion incomplete (provider unreachable); "
                       "will retry")
        return False
    journal.commit(intent.intent_id, outcome="rolled-forward")
    report.rolled_forward += 1
    client.obs.metrics.inc(RECOVERY_ROLLFORWARD, op="gc")
    actions.append(f"gc: re-deleted {deleted} share(s) of recorded "
                   f"unreferenced chunks")
    return True


def _recover_meta_repair(client, journal, intent, report, actions) -> bool:
    """Roll a crashed metadata re-dispersal forward.

    The intent carries the node's encoding (hex), so the replay simply
    re-publishes it across every slot — an idempotent overwrite (the
    repaired slots get a fresh envelope stamp; shares of identical
    plaintext group together at fetch regardless of stamp).  The open
    debt was never retired, so the next repair tick re-censuses and
    retires it once the slots verify.
    """
    begin = intent.first(BEGIN)
    node_id = str(begin.fields.get("node_id", ""))[:12]
    try:
        node = decode_node(bytes.fromhex(str(begin.fields["node"])))
    except (KeyError, ValueError, CyrusError):
        # an unreadable intent cannot be replayed; the debt ledger still
        # holds the obligation, so closing the intent loses nothing
        journal.commit(intent.intent_id, outcome="unreadable")
        actions.append(f"meta-repair {node_id}: unreadable intent, closed "
                       f"(debt ledger still owns the deficit)")
        return True
    client.uploader._publish(node)  # raises if < t slots reachable
    client.tree.add(node)
    journal.commit(intent.intent_id, outcome="rolled-forward")
    report.rolled_forward += 1
    report.meta_republished += 1
    client.obs.metrics.inc(RECOVERY_ROLLFORWARD, op="meta-repair")
    actions.append(f"meta-repair {node_id}: re-published metadata node")
    return True


def _recover_migrate(client, journal, intent, report, actions) -> bool:
    """Reconcile a crashed lazy migration: adopt landed shares of live
    chunks, delete landed shares of forgotten chunks."""
    begin = intent.first(BEGIN)
    chunk_id = str(begin.fields.get("chunk", ""))
    adopted = 0
    deleted = 0
    for move in begin.fields.get("moves", ()):
        try:
            index, csp_id, obj_name = int(move[0]), str(move[1]), str(move[2])
        except (TypeError, ValueError, IndexError):
            continue
        try:
            client.cloud.status_of(csp_id)
        except KeyError:
            continue
        # absent, or unreachable: a live share there is never harmful
        listed = list_objects(client.engine, [csp_id], obj_name)
        if not any(i.name == obj_name for i in listed.get(csp_id, ())):
            continue
        if client.chunk_table.is_stored(chunk_id):
            location = client.chunk_table.get(chunk_id)
            if (index, csp_id) not in location.placements:
                client.chunk_table.add_placement(chunk_id, index, csp_id)
                adopted += 1
        else:
            [result] = client.engine.execute([TransferOp(
                kind=OpKind.DELETE, csp_id=csp_id, name=obj_name,
                chunk_id=chunk_id,
            )])
            if result.ok:
                deleted += 1
    report.placements_adopted += adopted
    report.shares_deleted += deleted
    journal.commit(intent.intent_id, outcome="rolled-forward")
    report.rolled_forward += 1
    client.obs.metrics.inc(RECOVERY_ROLLFORWARD, op="migrate")
    actions.append(f"migrate {chunk_id[:8]}: adopted {adopted}, "
                   f"deleted {deleted} share(s)")
    return True
