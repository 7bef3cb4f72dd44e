"""The redundancy-debt ledger: a view over the client's intent journal.

A CYRUS write that reaches ``t`` but not ``n`` stored shares is
*accepted* — the data is recoverable — but it carries less redundancy
than the user asked for, and nothing in the paper's lazy-repair story
fixes it until some future download happens to notice.  The ledger
makes that deficit a first-class, durable obligation: every degraded
write (and every corrupt share detected at decode time) records a
**debt** naming the chunk, the share indices that are missing or
suspect, and the providers that failed or lied.  The repair loop
(:mod:`repro.redundancy.repair`) drains open debts back to full
``n``-way redundancy and retires each once the chunk is whole again.

The records are the journal's ``debt`` / ``attempt`` / ``retire``
stages (:mod:`repro.recovery.journal` documents them), so a client
keeps one local log: a degraded put's ``debt`` barrier lands in the
same file as its ``begin``, before its node is published.
"""

from __future__ import annotations

from pathlib import Path

from repro.recovery.journal import DebtEntry, IntentJournal

#: Metric names (mirrors the repro.obs constant style).
DEBT_RECORDED = "cyrus_debt_recorded_total"
DEBT_RETIRED = "cyrus_debt_retired_total"
DEBT_OPEN = "cyrus_debt_open"
REPAIR_SHARES = "cyrus_repair_shares_total"


class DebtLedger:
    """The open debts of one :class:`IntentJournal`.

    Pass the client's journal to keep one log, or a path to open a
    journal there (``clock``, ``fsync`` and ``compact_after`` apply only
    then).
    """

    def __init__(self, journal_or_path: IntentJournal | str | Path,
                 clock=None, fsync: bool = True, compact_after: int = 256):
        if not isinstance(journal_or_path, IntentJournal):
            journal_or_path = IntentJournal(journal_or_path, clock, fsync,
                                            compact_after)
        self.journal = journal_or_path

    @property
    def path(self) -> Path:
        return self.journal.path

    @property
    def fsync(self) -> bool:
        return self.journal.fsync

    @property
    def clock(self):
        return self.journal.clock

    @clock.setter
    def clock(self, clock) -> None:
        self.journal.clock = clock

    def record(
        self,
        chunk_id: str,
        missing: tuple[int, ...] | list[int],
        failed_csps: tuple[str, ...] | list[str] = (),
        kind: str = "chunk",
    ) -> str:
        """Record (or merge into) the open debt for one object.

        Returns the debt id.  An object with an open debt gets its
        entry *merged* — union of missing indices and suspect CSPs — so
        a degraded write followed by a corrupt-read detection produces
        one obligation, not two.  ``kind`` distinguishes data chunks
        (the default) from metadata nodes (``"meta"``).
        """
        return self.journal.record_debt(chunk_id, missing, failed_csps, kind)

    def note_attempt(self, debt_id: str, ok: bool = False,
                     detail: str = "") -> None:
        """Record one failed (or partial) repair try; bumps the backoff."""
        self.journal.note_attempt(debt_id, ok, detail)

    def retire(self, debt_id: str) -> None:
        """Close a debt; periodically compacts the journal."""
        self.journal.retire(debt_id)

    def open_debts(self) -> list[DebtEntry]:
        """All open entries, oldest first (repair drains in this order)."""
        return self.journal.open_debts()

    def debt_for(self, chunk_id: str, kind: str = "chunk") -> DebtEntry | None:
        """The open entry for one chunk (or metadata node), if any."""
        return self.journal.debt_for(chunk_id, kind)

    def __len__(self) -> int:
        return len(self.journal.open_debts())

    def compact(self) -> int:
        """Compact the journal (:meth:`IntentJournal.compact`)."""
        return self.journal.compact()
