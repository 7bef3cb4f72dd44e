"""Re-dispersal repair: drain the debt ledger back to full redundancy.

A debt names a chunk holding fewer than ``n`` verifiable shares — or,
for ``kind == "meta"`` entries, a metadata node with missing, stale or
corrupt scattered shares.  The repair loop drives
:mod:`repro.redundancy.reconcile` from the ledger: each due debt is
reconciled with the CSPs that failed the write or served a corrupt
share as suspects (they never count toward the target, even if the
table still lists them).  For chunks the entry's ``missing`` list is
advisory, the chunk table is the truth; for metadata it names slots
found stale or corrupt, which no listing can see.  A reconcile is
journaled, so a crash before retirement replays like any intent and
the next pass retires the debt with zero transfers.  A debt not healed
records an ``attempt`` and backs off exponentially while the fleet is
unhealthy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import span_if
from repro.redundancy.ledger import (
    DEBT_OPEN,
    DEBT_RETIRED,
    DebtLedger,
    REPAIR_SHARES,
)
from repro.redundancy.reconcile import (
    OVER_BUDGET,
    REPAIRED,
    UNRECOVERABLE,
    WHOLE,
    Budget,
    Outcome,
    assess_chunk,
    assess_node,
    reconcile_chunk,
    reconcile_node,
    slot_listing,
)


@dataclass
class RepairReport:
    """What one repair slice saw and fixed."""

    debts_seen: int = 0
    debts_retired: int = 0
    debts_deferred: int = 0  # backoff not yet elapsed
    debts_failed: int = 0  # attempted, still open (backoff bumped)
    debts_open: int = 0  # ledger size after the slice
    shares_rebuilt: int = 0
    transfers_used: int = 0
    budget_exhausted: bool = False
    unrecoverable_chunks: tuple[str, ...] = ()

    @property
    def drained(self) -> bool:
        """No open debt remains after this slice."""
        return self.debts_open == 0


def run_repair(
    client,
    ledger: DebtLedger | None = None,
    budget_shares: int | None = None,
    journal=None,
    backoff_base: float = 30.0,
    backoff_multiplier: float = 2.0,
    backoff_max: float = 3600.0,
) -> RepairReport:
    """One re-dispersal pass (or budget-limited slice) over the ledger.

    ``budget_shares`` caps share downloads + uploads (None = unbounded);
    entries still inside their backoff window are skipped without cost.
    """
    if ledger is None:
        ledger = getattr(client, "debt_ledger", None)
    report = RepairReport()
    if ledger is None:
        return report
    if journal is None:
        journal = getattr(client, "journal", None)
    obs = client.obs
    budget = Budget(budget_shares)
    listing = None  # the metadata slots' listing, taken at the first meta debt
    with span_if(obs, "repair", budget=budget_shares or 0):
        now = client.engine.clock.now()
        for entry in ledger.open_debts():
            report.debts_seen += 1
            if entry.next_due(backoff_base, backoff_multiplier,
                              backoff_max) > now:
                report.debts_deferred += 1
                continue
            if budget.exhausted:
                report.budget_exhausted = True
                break
            if entry.kind == "meta":
                if listing is None:
                    listing = slot_listing(client.engine, client.cloud, client.store)
                out = reconcile_node(assess_node(
                    client, entry.chunk_id, listing, entry.failed_csps,
                    entry.missing), journal, budget)
            elif entry.chunk_id in client.chunk_table:
                out = reconcile_chunk(assess_chunk(
                    client, entry.chunk_id, entry.failed_csps), journal, budget)
            else:  # the chunk was garbage-collected: the deficit is moot
                out = Outcome()
            if out.status == OVER_BUDGET:
                report.budget_exhausted = True
                break
            report.transfers_used += out.transfers
            report.shares_rebuilt += out.written
            if out.status in (WHOLE, REPAIRED):
                ledger.retire(entry.debt_id)
                report.debts_retired += 1
                obs.metrics.inc(DEBT_RETIRED)
                continue
            if out.status == UNRECOVERABLE:
                report.unrecoverable_chunks += (entry.chunk_id,)
            ledger.note_attempt(entry.debt_id, detail=(
                f"{out.status}: rewrote {out.written} of {out.owed} owed "
                f"shares after {out.transfers} transfers"))
            report.debts_failed += 1
        report.debts_open = len(ledger)
        obs.metrics.set_gauge(DEBT_OPEN, report.debts_open)
        obs.metrics.inc(REPAIR_SHARES, report.shares_rebuilt)
    return report
