"""The client's one local log: operation intents and redundancy debts.

A CYRUS ``put`` is only durable once its metadata node is visible at
``t`` metadata slots; everything before that — the scattered chunk
shares — is invisible garbage if the client process dies mid-flight.
The journal closes that window with DepSky-style commit discipline made
explicit: before touching any provider, the client appends a ``begin``
record naming every share object it *intends* to create and the id of
the node it will publish, then a ``commit`` record once local state
reflects the published node.  On restart, :mod:`repro.recovery.recover`
replays any intent without a ``commit``, asking the metadata slots
whether its node was published.

The same log holds what redundancy the client still owes: a write that
stores ``t <= shares < n`` (or a read that catches a corrupt share)
opens a **debt** that :mod:`repro.redundancy.repair` drains.  A debt's
records carry its id where an intent's carry the intent id;
:class:`repro.redundancy.DebtLedger` is the view repair reads.

Record stages.  Group commit (:class:`repro.util.appendlog.AppendLog`):
every record reaches the kernel at once, but only the three marked *
are fsync barriers; a power loss keeps everything up to the last one and
may tear the final line, which the parser drops instead of failing::

    begin(put|delete|...)        * planned share placements (the
                                   rollback set) and the node id, on
                                   disk before any share leaves
    share-intent                 * a failover re-planned one share onto
                                   a new CSP, before the re-dispatch
    commit                         local state updated; intent done

    debt(chunk, missing, failed, * an object short of its redundancy, on
         kind)                     disk before a degraded node is
                                   published; re-records for one object
                                   merge under one id
    attempt(ok, detail)            a failed repair try; drives backoff
                                   (a power loss only resets it)
    retire                         the object is whole again (a lost one
                                   reopens the debt; the next repair
                                   retires it with zero transfers)

A lost ``commit`` is safe to lose: the next barrier makes it durable
(one append log), and a replay of a put or delete reads ground truth —
the node is in the synced tree (acknowledge) or at fewer than ``t``
slots (roll back shares no node references).  A fault-free one-chunk
put is 2 writes and 1 fsync.  Compaction (committed intents and retired
debts dropped) is the log's temp file + ``os.replace`` + directory
fsync: a crash leaves the old or the new journal, never a mix.
"""

from __future__ import annotations

import json
import threading
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import CyrusError
from repro.util.appendlog import AppendLog, json_line

#: Stage names: an intent's in pipeline order, then a debt's in
#: lifecycle order.
BEGIN = "begin"
SHARE_INTENT = "share-intent"
COMMIT = "commit"
DEBT = "debt"
ATTEMPT = "attempt"
RETIRE = "retire"

STAGES = (BEGIN, SHARE_INTENT, COMMIT, DEBT, ATTEMPT, RETIRE)
DEBT_STAGES = frozenset((DEBT, ATTEMPT, RETIRE))

#: Stages appended with an fsync (the module docstring says why the
#: others may be lost).
BARRIERS = frozenset((BEGIN, SHARE_INTENT, DEBT))

#: Operations a ``begin`` record may name.
OPS = ("put", "delete", "gc", "migrate", "meta-repair")


class JournalError(CyrusError):
    """A malformed record reached encode/decode (never raised while
    parsing a journal file — torn or alien lines are skipped there)."""


@dataclass(frozen=True)
class JournalRecord:
    """One journal line.

    ``fields`` carries the stage-specific payload (placements, the
    encoded node, share coordinates); it must be JSON-serialisable.
    """

    intent_id: str
    stage: str
    seq: int = 0
    op: str = ""
    time: float = 0.0
    fields: dict = field(default_factory=dict)

    def encode(self) -> bytes:
        """One JSON line (newline-terminated), sorted keys."""
        if self.stage not in STAGES:
            raise JournalError(f"unknown journal stage {self.stage!r}")
        doc = {
            "id": self.intent_id,
            "seq": self.seq,
            "stage": self.stage,
            "time": self.time,
        }
        if self.op:
            doc["op"] = self.op
        if self.fields:
            doc["fields"] = self.fields
        try:
            return json_line(doc)
        except (TypeError, ValueError) as exc:
            raise JournalError(f"unencodable journal record: {exc}") from exc

    @classmethod
    def decode(cls, line: bytes) -> "JournalRecord":
        """Parse one line; raises :class:`JournalError` on garbage."""
        try:
            doc = json.loads(line.decode("utf-8"))
            return cls(
                intent_id=str(doc["id"]),
                stage=str(doc["stage"]),
                seq=int(doc["seq"]),
                op=str(doc.get("op", "")),
                time=float(doc["time"]),
                fields=dict(doc.get("fields", {})),
            )
        except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
            raise JournalError(f"undecodable journal line: {exc}") from exc


@dataclass
class Intent:
    """All records of one intent, aggregated for recovery."""

    intent_id: str
    op: str
    records: list[JournalRecord] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return any(r.stage == COMMIT for r in self.records)

    def first(self, stage: str) -> JournalRecord | None:
        for record in self.records:
            if record.stage == stage:
                return record
        return None

    def planned_shares(self) -> list[tuple[str, str, str]]:
        """Every ``(chunk_id, csp, object)`` this intent may have
        created: the ``begin`` placements plus failover re-plans — the
        rollback set."""
        out: list[tuple[str, str, str]] = []
        seen: set[tuple[str, str]] = set()
        begin = self.first(BEGIN)
        sources: list[dict] = []
        if begin is not None:
            sources.extend(begin.fields.get("placements", ()))
        for record in self.records:
            if record.stage == SHARE_INTENT:
                sources.append(record.fields)
        for entry in sources:
            try:
                chunk = str(entry["chunk"])
                csp = str(entry["csp"])
                obj = str(entry["object"])
            except (KeyError, TypeError):
                continue
            if (csp, obj) in seen:
                continue
            seen.add((csp, obj))
            out.append((chunk, csp, obj))
        return out


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
        created: Journal-clock time of the first record.
        attempts: Failed repair tries so far (drives backoff).
        last_attempt: Time of the most recent failed try.
        kind: What the id names: "chunk" (a data chunk) or "meta" (a
            metadata node id whose scattered shares need re-dispersal).
    """

    debt_id: str
    chunk_id: str
    missing: tuple[int, ...]
    failed_csps: tuple[str, ...]
    created: float = 0.0
    attempts: int = 0
    last_attempt: float = 0.0
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

    def fields(self) -> dict:
        """The payload of this entry's ``debt`` record."""
        return {"chunk": self.chunk_id, "missing": list(self.missing),
                "failed": list(self.failed_csps), "kind": self.kind}


def _merge(prior: DebtEntry | None, debt_id: str, chunk_id: str,
           missing, failed, time: float, kind: str) -> DebtEntry:
    """A new entry, or ``prior`` with the union of indices and suspects."""
    base = prior or DebtEntry(debt_id=debt_id, chunk_id=chunk_id, missing=(),
                              failed_csps=(), created=time, kind=kind)
    return replace(
        base, missing=tuple(sorted(set(base.missing) | set(missing))),
        failed_csps=tuple(sorted(set(base.failed_csps) | set(failed))),
    )


class IntentJournal:
    """Append-only JSONL log of intents and debts, with atomic compaction.

    Records go through one :class:`AppendLog` descriptor, fsynced only
    at :data:`BARRIERS`.  The descriptor appends with ``O_APPEND``, so a
    successor generation can append to the path its crashed predecessor
    left open.  ``fsync=False`` keeps every write and skips every fsync.
    Open debts are folded from disk at construction and kept current by
    every debt append, so debt reads never re-parse the file; intents
    are read from disk, by recovery only.
    """

    def __init__(self, path: str | Path, clock=None, fsync: bool = True,
                 compact_after: int = 256):
        self._log = AppendLog(path, fsync)
        self.path = self._log.path
        self.clock = clock
        self.compact_after = max(1, compact_after)
        self._debts: dict[str, DebtEntry] = {}  # open debt id -> entry
        self._debt_ids: dict[tuple[str, str], str] = {}  # (kind, object) -> id
        records = self._parse()[0]
        for record in records:
            if record.stage in DEBT_STAGES:
                try:
                    self._fold(record)
                except (KeyError, TypeError, ValueError):
                    continue  # a malformed debt record
        self._seq = max((r.seq for r in records), default=-1) + 1
        self._closed_since_compact = 0  # commits + retires
        # seq allocation + append (+ the debt fold) are one step: records
        # may arrive from several threads, on-disk seq order must match
        # append order, and a debt read must see every debt append
        # (reentrant so commit's record() and the compaction nest)
        self._lock = threading.RLock()

    @property
    def fsync(self) -> bool:
        return self._log.fsync

    # -- writing ----------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _append(self, intent_id: str, stage: str, fields: dict,
                op: str = "") -> JournalRecord:
        with self._lock:
            record = JournalRecord(
                intent_id=intent_id, stage=stage, seq=self._seq, op=op,
                time=self._now(), fields=fields,
            )
            self._seq += 1
            self._log.append(record.encode(), barrier=stage in BARRIERS)
            return record

    def begin(self, op: str, **fields) -> str:
        """Open a new intent; returns its id."""
        if op not in OPS:
            raise JournalError(f"unknown journal op {op!r}")
        intent_id = uuid.uuid4().hex[:16]
        self._append(intent_id, BEGIN, fields, op)
        return intent_id

    def record(self, intent_id: str, stage: str, **fields) -> JournalRecord:
        """Append one progress record to an open intent."""
        return self._append(intent_id, stage, fields)

    def commit(self, intent_id: str, outcome: str = "committed") -> None:
        """Close an intent; periodically compacts the file."""
        with self._lock:
            self.record(intent_id, COMMIT, outcome=outcome)
            self._closed()

    def _closed(self) -> None:
        self._closed_since_compact += 1
        if self._closed_since_compact >= self.compact_after:
            self.compact()

    # -- debts ------------------------------------------------------------

    def record_debt(self, chunk_id: str, missing, failed_csps=(),
                    kind: str = "chunk") -> str:
        """Record (or merge into) the open debt for one object; returns
        the debt id.  An identical re-record appends nothing."""
        with self._lock:
            debt_id = self._debt_ids.get((kind, chunk_id))
            prior = self._debts.get(debt_id)
            entry = _merge(prior, debt_id or uuid.uuid4().hex[:16], chunk_id,
                           missing, failed_csps, self._now(), kind)
            if entry != prior:
                self._fold(self._append(entry.debt_id, DEBT, entry.fields()))
            return entry.debt_id

    def note_attempt(self, debt_id: str, ok: bool = False,
                     detail: str = "") -> None:
        """Record one failed (or partial) repair try of an open debt."""
        with self._lock:
            if debt_id in self._debts:
                self._fold(self._append(debt_id, ATTEMPT,
                                        {"ok": bool(ok), "detail": detail}))

    def retire(self, debt_id: str) -> None:
        """Close an open debt; periodically compacts the file."""
        with self._lock:
            if debt_id in self._debts:
                self._fold(self._append(debt_id, RETIRE, {}))
                self._closed()

    def open_debts(self) -> list[DebtEntry]:
        """All open debts, oldest first (repair drains in this order)."""
        with self._lock:
            return sorted(self._debts.values(),
                          key=lambda e: (e.created, e.debt_id))

    def debt_for(self, chunk_id: str, kind: str = "chunk") -> DebtEntry | None:
        """The open debt for one object, if any."""
        with self._lock:
            return self._debts.get(self._debt_ids.get((kind, chunk_id)))

    def _fold(self, record: JournalRecord) -> None:
        """Fold one debt record into the open debts (load and append)."""
        debt_id, fields = record.intent_id, record.fields
        prior = self._debts.get(debt_id)
        if record.stage == DEBT:
            entry = _merge(prior, debt_id, str(fields["chunk"]),
                           [int(i) for i in fields["missing"]],
                           [str(c) for c in fields.get("failed", ())],
                           record.time, str(fields.get("kind", "chunk")))
            self._debts[debt_id] = entry
            self._debt_ids[entry.kind, entry.chunk_id] = debt_id
        elif prior is None:
            return  # progress on a debt that is not open
        elif record.stage == ATTEMPT:
            self._debts[debt_id] = replace(
                prior, attempts=prior.attempts + 1, last_attempt=record.time,
            )
        else:  # RETIRE
            del self._debts[debt_id]
            self._debt_ids.pop((prior.kind, prior.chunk_id), None)

    # -- reading ----------------------------------------------------------

    def _parse(self) -> tuple[list[JournalRecord], int]:
        """All decodable records in seq order plus the count of skipped
        lines: a torn final line or a corrupt interior one is skipped,
        never fatal — the journal must not be what prevents recovery.
        """
        records: list[JournalRecord] = []
        skipped = 0
        for line in self._log.lines():
            try:
                records.append(JournalRecord.decode(line))
            except JournalError:
                skipped += 1
        records.sort(key=lambda r: r.seq)
        return records, skipped

    def intents(self) -> list[Intent]:
        """All intents on disk, in begin order."""
        records, _ = self._parse()
        by_id: dict[str, Intent] = {}
        for record in records:
            if record.stage in DEBT_STAGES:
                continue
            intent = by_id.get(record.intent_id)
            if intent is None:
                intent = by_id[record.intent_id] = Intent(
                    intent_id=record.intent_id, op=record.op,
                )
            if record.op and not intent.op:
                intent.op = record.op
            intent.records.append(record)
        return list(by_id.values())

    def incomplete(self) -> list[Intent]:
        """Intents with a ``begin`` but no ``commit`` — the replay set.

        Records without a ``begin`` (its line was the torn one) are
        unreplayable and ignored; their shares are scrub's problem.
        """
        return [
            i for i in self.intents()
            if not i.committed and i.first(BEGIN) is not None
        ]

    # -- compaction -------------------------------------------------------

    def compact(self) -> int:
        """Drop committed intents and retired debts; returns records
        removed.

        Incomplete intents keep every record.  An open debt is rewritten
        as one merged ``debt`` record plus one ``attempt`` per recorded
        try, which keeps its backoff exactly.  Atomic: the survivors
        replace the journal in one rename (:meth:`AppendLog.rewrite`).
        """
        with self._lock:
            records, skipped = self._parse()
            done = {r.intent_id for r in records if r.stage == COMMIT}
            survivors: list[JournalRecord] = []
            for entry in self.open_debts():
                survivors.append(JournalRecord(
                    entry.debt_id, DEBT, time=entry.created,
                    fields=entry.fields()))
                survivors.extend(JournalRecord(
                    entry.debt_id, ATTEMPT, time=entry.last_attempt,
                    fields={"ok": False, "detail": "(compacted)"},
                ) for _ in range(entry.attempts))
            survivors.extend(r for r in records if r.stage not in DEBT_STAGES
                             and r.intent_id not in done)
            removed = len(records) + skipped - len(survivors)
            if removed:
                self._log.rewrite(replace(r, seq=seq).encode()
                                  for seq, r in enumerate(survivors))
                self._seq = len(survivors)
            self._closed_since_compact = 0
            return removed
