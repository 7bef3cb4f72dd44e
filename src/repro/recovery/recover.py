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
  ``t`` copies are listed) — roll *back*: reclaim those copies and
  every share object the intent planned.

Anything else — a slot did not answer, or ``t`` copies are listed but
did not decode — leaves the intent incomplete for the next run: with
a partial view, a node at ``t`` slots may look unpublished.  A node
pruned after its put committed is gone from the slots; if that
``commit`` was lost, the replay rolls back only shares no node
references, which garbage collection would delete anyway.

``gc`` intents roll forward (forget the recorded doomed chunks that
are still unreferenced, then reclaim their placements); ``migrate``
intents reconcile (reclaim the moves of a chunk the table no longer
holds; check a live chunk's moves with one ``LIST`` batch and adopt the
shares that landed); ``meta-repair`` intents roll forward (re-publish the
journaled node verbatim — metadata slot names are fixed per node and
index, so the replay overwrites identical-meaning bytes and can never
duplicate a share).

Every deletion is one :func:`repro.core.maintenance.reclaim` batch
under its one rule: a share of a chunk the freshly synced table holds
is live data (content-addressed, whichever client wrote it), and a CSP
this client does not know or has removed is never touched.

Every repair action is idempotent — deletes tolerate already-gone
objects, re-publishes overwrite identical bytes, adoption is a set
insert — so a crash *during* recovery is recovered by simply running
recovery again.  The ``commit`` record is written only after an
intent's repairs all succeeded (a reclaim only when its batch came back
clean); an intent whose repair hits an unreachable provider stays
incomplete and is retried on the next run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.maintenance import reclaim, sweep_chunks
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
        return _roll_forward(client, journal, intent, report, actions,
                             f"{intent.op} {label!r}: metadata was "
                             f"published; acknowledged")
    copies = _listed_copies(client, label, node_id)
    if copies is None or len(copies) >= client.store.t:
        actions.append(f"{intent.op} {label!r}: node {node_id[:12]} "
                       f"neither synced nor provably unpublished; will retry")
        return False
    # never visible: undo the partial publish and the scatter
    deleted = _reclaim(client, report, actions, f"{intent.op} {label!r}", [
        *copies,
        *((csp_id, name, chunk_id)
          for chunk_id, csp_id, name in intent.planned_shares()),
    ])
    if deleted is None:
        return False
    journal.commit(intent.intent_id, outcome="rolled-back")
    report.rolled_back += 1
    client.obs.metrics.inc(RECOVERY_ROLLBACK, op=intent.op)
    actions.append(f"{intent.op} {label!r}: rolled back "
                   f"({deleted} orphaned share(s) deleted)")
    return True


def _roll_forward(client, journal, intent, report, actions, note) -> bool:
    """Commit an intent whose repair is done (or was never needed)."""
    journal.commit(intent.intent_id, outcome="rolled-forward")
    report.rolled_forward += 1
    client.obs.metrics.inc(RECOVERY_ROLLFORWARD, op=intent.op)
    actions.append(note)
    return True


def _reclaim(client, report, actions, label, objects) -> int | None:
    """:func:`reclaim` ``objects`` for one intent and count the deleted
    shares; None, noted for a retry, unless the batch came back clean."""
    results, clean = reclaim(client, objects)
    deleted = sum(1 for r in results if r.ok)
    report.shares_deleted += deleted
    if deleted:
        client.obs.metrics.inc(RECOVERY_SHARES_DELETED, deleted)
    if not clean:
        actions.append(f"{label}: reclaim incomplete (provider "
                       f"unreachable); will retry")
        return None
    return deleted


def _listed_copies(client, name, node_id) -> list[tuple] | None:
    """``(csp, object, None)`` of every metadata share of ``node_id``
    that the slots of ``name``'s group list (objects to reclaim), or
    None unless every slot whose CSP is not removed answered."""
    slots = {p.csp_id for p in client.store.slots_for(name)
             if client.cloud.keeps(p.csp_id)}
    listing = list_objects(client.engine, sorted(slots),
                           f"{METADATA_PREFIX}{node_id}-")
    if len(listing) < len(slots):
        return None
    return [(csp, info.name, None) for csp, infos in sorted(listing.items())
            for info in infos]


def _recover_gc(client, journal, intent, report, actions) -> bool:
    """Re-run the recorded deletions of a crashed collection pass."""
    begin = intent.first(BEGIN)
    deleted = _reclaim(client, report, actions, "gc", sweep_chunks(
        client, begin.fields.get("chunks", ())))
    if deleted is None:
        return False
    return _roll_forward(client, journal, intent, report, actions,
                         f"gc: re-deleted {deleted} share(s) of recorded "
                         f"unreferenced chunks")


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
    report.meta_republished += 1
    return _roll_forward(client, journal, intent, report, actions,
                         f"meta-repair {node_id}: re-published metadata node")


def _recover_migrate(client, journal, intent, report, actions) -> bool:
    """Reconcile a crashed lazy migration: reclaim the moves of a
    forgotten chunk, and adopt the landed shares of a live one."""
    begin = intent.first(BEGIN)
    chunk_id = str(begin.fields.get("chunk", ""))
    moves = []
    for move in begin.fields.get("moves", ()):
        try:
            moves.append((int(move[0]), str(move[1]), str(move[2])))
        except (TypeError, ValueError, IndexError):
            continue
    table = client.chunk_table
    adopted = deleted = 0
    if not table.is_stored(chunk_id):
        # nothing lists first: a move that never landed is not found
        deleted = _reclaim(client, report, actions, f"migrate {chunk_id[:8]}",
                           [(csp_id, name, chunk_id)
                            for _i, csp_id, name in moves])
        if deleted is None:
            return False
    else:
        # absent, or unreachable: a live share there is never harmful
        moves = [m for m in moves if client.cloud.keeps(m[1])]
        results = client.engine.execute([
            TransferOp(kind=OpKind.LIST, csp_id=csp_id, name=name,
                       force_dispatch=True)
            for _i, csp_id, name in moves
        ]) if moves else []
        placements = table.get(chunk_id).placements
        for (index, csp_id, name), result in zip(moves, results):
            if (result.ok and (index, csp_id) not in placements
                    and any(i.name == name for i in result.listing)):
                table.add_placement(chunk_id, index, csp_id)
                adopted += 1
    report.placements_adopted += adopted
    return _roll_forward(client, journal, intent, report, actions,
                         f"migrate {chunk_id[:8]}: adopted {adopted}, "
                         f"deleted {deleted} share(s)")
