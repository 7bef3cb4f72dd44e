"""Anti-entropy scrub: find and repair share damage before a read does.

The paper repairs lazily — a download that notices a share stranded on
a dead CSP regenerates it (Section 5.5) — which means a file nobody
reads silently decays as providers fail.  The scrub drives
:mod:`repro.redundancy.reconcile` from a census:

1. **Census** (one ``LIST`` batch over the active CSPs, no data
   transfer): adopt shares the table does not know about (a crashed
   migration that landed) and flag *orphans* — share-shaped objects no
   known chunk accounts for.
2. **Verify + repair**: walk chunks round-robin from a persistent
   cursor and reconcile each against the census — every listed share
   is fetched and checked, every missing, corrupt or stranded index
   regenerated under a journaled ``migrate`` intent.
3. **Metadata**: the same census judges each node's slots; listed
   shares are read through :func:`repro.core.sync.fetch_nodes`, the
   read a sync makes, and damage becomes ``meta`` debts for
   :func:`repro.redundancy.run_repair`.  Unlike a sync, a scrub also
   owes a debt for a slot whose provider listed without the object.

The budget counts share *transfers* (downloads + uploads).  A slice
takes whole chunks: it stops before a chunk whose fetches and known
rewrites the budget left cannot cover, with the cursor on it, but
always takes its first chunk, so any budget advances.  A
:class:`Scrubber` carries the cursors between slices.

Orphans are reported, not deleted, by default: a concurrent client
mid-``put`` has (by design) shares on CSPs before any metadata names
them, and only the operator can rule that out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.maintenance import reclaim
from repro.core.naming import chunk_share_object_name
from repro.core.sync import fetch_nodes
from repro.core.transfer import list_objects
from repro.obs import span_if
from repro.redundancy.reconcile import (
    OVER_BUDGET,
    SHORT,
    UNRECOVERABLE,
    Budget,
    assess_chunk,
    assess_node,
    reconcile_chunk,
)

#: Metric names (mirrors the repro.obs constant style).
SCRUB_SHARES_VERIFIED = "cyrus_scrub_shares_verified_total"
SCRUB_SHARES_REPAIRED = "cyrus_scrub_shares_repaired_total"
SCRUB_ORPHANS_FOUND = "cyrus_scrub_orphans_total"

#: Chunk-share object names are bare 40-hex digests (see repro.core.naming).
_SHARE_NAME = re.compile(r"^[0-9a-f]{40}$")


@dataclass
class ScrubReport:
    """What one scrub slice saw and fixed."""

    chunks_total: int = 0
    chunks_scanned: int = 0
    shares_verified: int = 0
    shares_missing: int = 0
    shares_corrupt: int = 0
    shares_repaired: int = 0
    placements_adopted: int = 0
    orphans: tuple[tuple[str, str], ...] = ()  # (csp, object)
    orphans_deleted: int = 0
    unrecoverable_chunks: tuple[str, ...] = ()
    unreachable_csps: tuple[str, ...] = ()
    cursor: int = 0
    budget_exhausted: bool = False
    # metadata plane census + verify
    meta_nodes_scanned: int = 0
    meta_shares_verified: int = 0
    meta_shares_missing: int = 0
    meta_shares_corrupt: int = 0
    meta_debts_recorded: int = 0
    meta_cursor: int = 0

    @property
    def complete(self) -> bool:
        return self.chunks_scanned >= self.chunks_total

    @property
    def healthy(self) -> bool:
        return (not self.unrecoverable_chunks and not self.orphans
                and self.shares_missing == self.shares_repaired == 0
                and self.shares_corrupt == 0
                and self.meta_shares_missing == 0
                and self.meta_shares_corrupt == 0)


def run_scrub(
    client,
    budget_shares: int | None = None,
    cursor: int = 0,
    repair: bool = True,
    delete_orphans: bool = False,
    journal=None,
    meta_cursor: int = 0,
    scrub_metadata: bool = True,
) -> ScrubReport:
    """One scrub pass (or budget-limited slice) over the chunk table.

    ``budget_shares`` caps share downloads + repair uploads (None =
    unbounded, i.e. a full-table integrity pass); ``cursor`` is where
    in the (sorted) chunk list to start, taken from the previous
    slice's report.  With ``repair=False`` the pass only reports.

    With ``scrub_metadata`` (the default) the pass also verifies the
    metadata plane from ``meta_cursor``, within a budget of the same
    size.  Corrupt shares are attributed to their CSP exactly like a
    decode-time verification failure.
    """
    if journal is None:
        journal = getattr(client, "journal", None)
    report = ScrubReport(cursor=cursor, meta_cursor=meta_cursor)
    obs = client.obs
    with span_if(obs, "scrub", budget=budget_shares or 0):
        chunk_ids = sorted(client.chunk_table.all_chunk_ids())
        report.chunks_total = len(chunk_ids)
        listings = _census(client, chunk_ids, report)
        if report.orphans:
            obs.metrics.inc(SCRUB_ORPHANS_FOUND, len(report.orphans))
        if delete_orphans and report.orphans:
            results, _clean = reclaim(client, [
                (csp_id, name, None) for csp_id, name in report.orphans])
            report.orphans_deleted = sum(1 for r in results if r.ok)
        if scrub_metadata:
            meta_budget = Budget(budget_shares, at_least_one=True)
            report.meta_nodes_scanned, report.meta_cursor = _sweep(
                sorted(client.tree.node_ids()), meta_cursor, meta_budget,
                report, lambda node_id: _verify_node(
                    client, assess_node(client, node_id, listings),
                    meta_budget, report))
        budget = Budget(budget_shares, at_least_one=True)

        def scrub_chunk(chunk_id: str) -> bool:
            state = assess_chunk(client, chunk_id, listing=listings)
            out = reconcile_chunk(state, journal, budget, repair=repair)
            if out.status == OVER_BUDGET:
                return False
            report.shares_missing += state.absent + out.missing
            report.shares_verified += out.verified
            report.shares_corrupt += out.corrupt
            report.shares_repaired += out.written
            if out.status in (SHORT, UNRECOVERABLE):
                report.unrecoverable_chunks += (chunk_id,)
            return True

        report.chunks_scanned, report.cursor = _sweep(
            chunk_ids, cursor, budget, report, scrub_chunk)
        obs.metrics.inc(SCRUB_SHARES_VERIFIED, report.shares_verified)
        obs.metrics.inc(SCRUB_SHARES_REPAIRED, report.shares_repaired)
    return report


def _sweep(ids, cursor, budget, report, visit) -> tuple[int, int]:
    """Visit ``ids`` round-robin from ``cursor`` while the budget lasts;
    ``visit`` returns False for an id it could not afford.  Returns
    (ids visited, the next cursor)."""
    if not ids:
        return 0, 0
    start = cursor % len(ids)
    scanned = 0
    for item in ids[start:] + ids[:start]:
        if budget.exhausted or not visit(item):
            report.budget_exhausted = True
            break
        scanned += 1
    return scanned, (start + scanned) % len(ids)


@dataclass
class Scrubber:
    """Cursor-carrying scrub driver for periodic slices.

    One instance per client: each :meth:`run_slice` continues where the
    previous one stopped, so a :class:`repro.core.daemon.SyncDaemon`
    tick with a small budget still sweeps the whole table over enough
    ticks.
    """

    client: object
    budget_shares: int | None = 64
    repair: bool = True
    delete_orphans: bool = False
    cursor: int = field(default=0)
    scrub_metadata: bool = True
    meta_cursor: int = field(default=0)

    def run_slice(self) -> ScrubReport:
        report = run_scrub(
            self.client, budget_shares=self.budget_shares,
            cursor=self.cursor, repair=self.repair,
            delete_orphans=self.delete_orphans,
            meta_cursor=self.meta_cursor,
            scrub_metadata=self.scrub_metadata,
        )
        self.cursor = report.cursor
        self.meta_cursor = report.meta_cursor
        return report


def _census(client, chunk_ids, report) -> dict[str, set[str]]:
    """One ``LIST`` batch over the active CSPs: {csp: object names},
    unreachable CSPs left out.  Adopts listed shares of known chunks the
    table does not record, and reports orphans and unreachable CSPs."""
    expected: dict[str, tuple[str, int]] = {}
    for chunk_id in chunk_ids:
        for index in range(client.chunk_table.get(chunk_id).n):
            expected[chunk_share_object_name(index, chunk_id)] = (
                chunk_id, index)
    active = client.cloud.active_csps()
    pages = list_objects(client.engine, active, "")
    report.unreachable_csps += tuple(c for c in active if c not in pages)
    listings = {csp_id: {info.name for info in infos}
                for csp_id, infos in pages.items()}
    orphans: list[tuple[str, str]] = []
    for csp_id, names in listings.items():
        for name in sorted(names):
            hit = expected.get(name)
            if hit is None:
                if _SHARE_NAME.match(name):
                    orphans.append((csp_id, name))
            elif (hit[1], csp_id) not in client.chunk_table.get(
                    hit[0]).placements:
                client.chunk_table.add_placement(hit[0], hit[1], csp_id)
                report.placements_adopted += 1
    report.orphans = tuple(orphans)
    return listings


def _verify_node(client, state, budget, report) -> bool:
    """Fetch every listed share of one node through the one metadata
    read, which attributes corrupt shares and records a ``meta`` debt
    for every missing, stale or corrupt slot; a slot that fails to
    answer gets no verdict.  Returns False, fetching nothing, when the
    budget cannot cover the node."""
    if not budget.affords(len(state.present)):
        return False
    budget.spend(len(state.present))
    results, assemblers = fetch_nodes(
        client.engine, client.store, {state.node_id: state.listed()},
        missing={state.node_id: state.rewrite})  # reachable, object missing
    asm = assemblers[state.node_id]
    asm.finish()
    report.meta_shares_verified += sum(1 for r in results if r.ok)
    report.meta_shares_missing += len(asm.missing | asm.stale)
    report.meta_shares_corrupt += len(asm.corrupt)
    report.meta_debts_recorded += bool(asm.missing or asm.stale or asm.corrupt)
    return True
