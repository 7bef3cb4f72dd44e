"""The redundancy-debt ledger.

A CYRUS write that reaches ``t`` but not ``n`` stored shares is
*accepted* — the data is recoverable — but it carries less redundancy
than the user asked for, and nothing in the paper's lazy-repair story
fixes it until some future download happens to notice.  The ledger
makes that deficit a first-class, durable obligation: every degraded
write (and every corrupt share detected at decode time) appends a
**debt** record naming the chunk, the share indices that are missing
or suspect, and the providers that failed or lied.  The repair loop
(:mod:`repro.redundancy.repair`) drains open debts back to full
``n``-way redundancy and appends a **retire** record once the chunk is
whole again.

Record kinds, in lifecycle order (group commit through
:class:`repro.util.appendlog.AppendLog`: every record reaches the
kernel at once, only a ``debt`` is an fsync barrier)::

    debt(chunk, missing, failed)   barrier — it must outlive the journal
                                   intent compaction drops, and corrupt-
                                   share debts belong to no intent; re-
                                   records for one chunk merge under one id
    attempt(ok, detail)            a failed repair try; drives backoff
                                   (a power loss only resets it)
    retire                         the chunk is back to n verified shares
                                   (a lost one reopens the debt; the next
                                   repair retires it with zero transfers)

The parser skips a torn or alien line instead of failing; retired
debts are compacted away through the log's atomic rewrite.
"""

from __future__ import annotations

import json
import threading
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import CyrusError
from repro.util.appendlog import AppendLog, json_line

#: Record kinds, in lifecycle order.
DEBT = "debt"
ATTEMPT = "attempt"
RETIRE = "retire"

KINDS = (DEBT, ATTEMPT, RETIRE)

#: Metric names (mirrors the repro.obs constant style).
DEBT_RECORDED = "cyrus_debt_recorded_total"
DEBT_RETIRED = "cyrus_debt_retired_total"
DEBT_OPEN = "cyrus_debt_open"
REPAIR_SHARES = "cyrus_repair_shares_total"


class LedgerError(CyrusError):
    """A malformed record reached encode (never raised while parsing a
    ledger file — torn or alien lines are skipped there)."""


@dataclass(frozen=True)
class DebtEntry:
    """One open redundancy deficit.

    Attributes:
        debt_id: Stable id; re-records for the same chunk merge into it.
        chunk_id: The under-replicated object — a chunk id, or a
            metadata node id when ``kind == "meta"``.
        missing: Share indices not verifiably held on a healthy CSP at
            record time (advisory — the repair loop re-derives the true
            deficit from the chunk table before acting).
        failed_csps: Providers that failed the original writes or
            returned corrupt shares; the repair loop never counts a
            share held there as satisfying the redundancy target.
        created: Ledger-clock time of the first record.
        attempts: Failed repair tries so far (drives backoff).
        last_attempt: Time of the most recent failed try.
    """

    debt_id: str
    chunk_id: str
    missing: tuple[int, ...]
    failed_csps: tuple[str, ...]
    created: float = 0.0
    attempts: int = 0
    last_attempt: float = 0.0
    #: What the id names: "chunk" (a data chunk, the default — legacy
    #: ledger lines carry no kind field) or "meta" (a metadata node id
    #: whose scattered shares need re-dispersal).
    kind: str = "chunk"

    def next_due(self, base: float = 30.0, multiplier: float = 2.0,
                 max_delay: float = 3600.0) -> float:
        """When the repair loop may try this entry again.

        Exponential per-entry backoff: a debt that keeps failing (the
        fleet is still unhealthy) steps back so the budget is spent on
        repairable debts first.  A never-tried entry is due immediately.
        """
        if self.attempts <= 0:
            return self.created
        delay = min(max_delay, base * multiplier ** (self.attempts - 1))
        return self.last_attempt + delay


def _merge(prior: DebtEntry | None, debt_id: str, chunk_id: str,
           missing, failed, time: float, kind: str) -> DebtEntry:
    """A new entry, or ``prior`` with the union of indices and suspects."""
    base = prior or DebtEntry(debt_id=debt_id, chunk_id=chunk_id, missing=(),
                              failed_csps=(), created=time, kind=kind)
    return replace(
        base, missing=tuple(sorted(set(base.missing) | set(missing))),
        failed_csps=tuple(sorted(set(base.failed_csps) | set(failed))),
    )


def _encode(doc: dict) -> bytes:
    try:
        return json_line(doc)
    except (TypeError, ValueError) as exc:
        raise LedgerError(f"unencodable ledger record: {exc}") from exc


class DebtLedger:
    """Append-only JSONL debt ledger with atomic compaction.

    Records go through one :class:`AppendLog` descriptor; only ``debt``
    records are fsynced.  The in-memory open-debt view is rebuilt from
    disk at construction and every append is folded into it by the same
    :meth:`_apply`, so reads never re-parse the file.
    """

    def __init__(self, path: str | Path, clock=None, fsync: bool = True,
                 compact_after: int = 256):
        self._log = AppendLog(path, fsync)
        self.path = self._log.path
        self.clock = clock
        self.compact_after = max(1, compact_after)
        self._lock = threading.RLock()
        self._open: dict[str, DebtEntry] = {}  # debt_id -> entry
        self._by_chunk: dict[str, str] = {}  # chunk key -> open debt_id
        self._seq = 0
        self._retires_since_compact = 0
        self._load()

    @property
    def fsync(self) -> bool:
        return self._log.fsync

    # -- writing ----------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    @staticmethod
    def _chunk_key(chunk_id: str, kind: str) -> str:
        """Open-debt merge key: chunk and meta ids share one 40-hex
        namespace, so the kind disambiguates (legacy ids: ``chunk:``)."""
        return f"{kind}:{chunk_id}"

    @staticmethod
    def _debt_doc(entry: DebtEntry, time: float) -> dict:
        doc = {"kind": DEBT, "id": entry.debt_id, "time": time,
               "chunk": entry.chunk_id, "missing": list(entry.missing),
               "failed": list(entry.failed_csps)}
        # only metadata debts carry "obj": chunk lines predate the field
        if entry.kind != "chunk":
            doc["obj"] = entry.kind
        return doc

    def _write(self, doc: dict) -> None:
        """Append one record (a barrier iff it is a debt) and fold it in."""
        self._seq += 1
        doc["seq"] = self._seq
        self._log.append(_encode(doc), barrier=doc["kind"] == DEBT)
        self._apply(doc)

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
        with self._lock:
            now = self._now()
            debt_id = self._by_chunk.get(self._chunk_key(chunk_id, kind))
            prior = self._open.get(debt_id)
            entry = _merge(prior, debt_id or uuid.uuid4().hex[:16], chunk_id,
                           missing, failed_csps, now, kind)
            if entry != prior:  # an identical re-record persists nothing
                self._write(self._debt_doc(entry, now))
            return entry.debt_id

    def note_attempt(self, debt_id: str, ok: bool = False,
                     detail: str = "") -> None:
        """Record one failed (or partial) repair try; bumps the backoff."""
        with self._lock:
            if debt_id in self._open:
                self._write({"kind": ATTEMPT, "id": debt_id,
                             "time": self._now(), "ok": bool(ok),
                             "detail": detail})

    def retire(self, debt_id: str) -> None:
        """Close a debt; periodically compacts the file."""
        with self._lock:
            if debt_id not in self._open:
                return
            self._write({"kind": RETIRE, "id": debt_id, "time": self._now()})
            self._retires_since_compact += 1
            if self._retires_since_compact >= self.compact_after:
                self.compact()

    # -- reading ----------------------------------------------------------

    def open_debts(self) -> list[DebtEntry]:
        """All open entries, oldest first (repair drains in this order)."""
        with self._lock:
            return sorted(self._open.values(),
                          key=lambda e: (e.created, e.debt_id))

    def debt_for(self, chunk_id: str, kind: str = "chunk") -> DebtEntry | None:
        """The open entry for one chunk (or metadata node), if any."""
        with self._lock:
            return self._open.get(
                self._by_chunk.get(self._chunk_key(chunk_id, kind)))

    def __len__(self) -> int:
        with self._lock:
            return len(self._open)

    def _parse(self) -> tuple[list[dict], int]:
        """All well-formed records in seq order plus the count of skipped
        lines: a torn final line or an alien interior one is skipped,
        never fatal — the ledger must not be what blocks repair."""
        records: list[dict] = []
        skipped = 0
        for line in self._log.lines():
            try:
                doc = json.loads(line)
            except ValueError:
                doc = None
            if isinstance(doc, dict) and doc.get("kind") in KINDS \
                    and "id" in doc:
                records.append(doc)
            else:
                skipped += 1
        records.sort(key=lambda d: int(d.get("seq", 0)))
        return records, skipped

    def _apply(self, doc: dict) -> None:
        """Fold one record into the open-debt view (load and append)."""
        debt_id = str(doc["id"])
        time = float(doc.get("time", 0.0))
        prior = self._open.get(debt_id)
        if doc["kind"] == DEBT:
            entry = _merge(prior, debt_id, str(doc["chunk"]),
                           [int(i) for i in doc["missing"]],
                           [str(c) for c in doc.get("failed", ())], time,
                           str(doc.get("obj", "chunk")))
            self._open[debt_id] = entry
            self._by_chunk[self._chunk_key(entry.chunk_id, entry.kind)] = debt_id
        elif prior is None:
            return  # progress on a debt that is not open
        elif doc["kind"] == ATTEMPT:
            self._open[debt_id] = replace(
                prior, attempts=prior.attempts + 1, last_attempt=time,
            )
        else:  # RETIRE
            del self._open[debt_id]
            self._by_chunk.pop(self._chunk_key(prior.chunk_id, prior.kind),
                               None)

    def _load(self) -> None:
        records, _skipped = self._parse()
        with self._lock:
            for doc in records:
                try:
                    self._apply(doc)
                except (KeyError, TypeError, ValueError):
                    continue  # a malformed record of a known kind
            self._seq = max((int(d.get("seq", 0)) for d in records),
                            default=0)

    # -- compaction -------------------------------------------------------

    def compact(self) -> int:
        """Drop records of retired debts; returns lines removed.

        Open debts are rewritten as one merged ``debt`` record plus one
        synthetic ``attempt`` per recorded try, preserving the backoff
        state exactly.  Atomic: :meth:`AppendLog.rewrite`.
        """
        with self._lock:
            records, skipped = self._parse()
            removed = skipped + sum(1 for d in records
                                    if str(d.get("id")) not in self._open)
            if removed:
                docs: list[dict] = []
                for entry in self.open_debts():
                    docs.append(self._debt_doc(entry, entry.created))
                    docs.extend({
                        "kind": ATTEMPT, "id": entry.debt_id,
                        "time": entry.last_attempt, "ok": False,
                        "detail": "(compacted)",
                    } for _ in range(entry.attempts))
                for seq, doc in enumerate(docs, 1):
                    doc["seq"] = seq
                self._log.rewrite(_encode(doc) for doc in docs)
                self._seq = len(docs)
            self._retires_since_compact = 0
            return removed
