"""The write-ahead intent journal.

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

Record stages.  Group commit (:class:`repro.util.appendlog.AppendLog`):
every record reaches the kernel at once, but only the two marked * are
fsync barriers; a power loss keeps everything up to the last one and
may tear the final line, which the parser drops instead of failing::

    begin(put|delete|...)        * planned share placements (the
                                   rollback set) and the node id, on
                                   disk before any share leaves
    share-intent                 * a failover re-planned one share onto
                                   a new CSP, before the re-dispatch
    share-uploaded(csp, object)    migrate only: one moved share landed
    debt(chunk, missing, failed)   t <= stored < n: a redundancy debt
                                   recovery reconciles into the ledger
                                   (the ledger fsyncs its own copy)
    commit                         local state updated; intent done

A lost ``commit`` is safe to lose: the next intent's ``begin`` fsync
makes it durable (one append log), and a replay of a put or delete
reads ground truth — the node is in the synced tree (acknowledge) or
at fewer than ``t`` slots (roll back shares no node references).  A
fault-free one-chunk put is 2 writes and 1 fsync.  Compaction
(committed intents dropped) is the log's temp file + ``os.replace`` +
directory fsync: a crash leaves the old or the new journal, never a mix.
"""

from __future__ import annotations

import json
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CyrusError
from repro.util.appendlog import AppendLog, json_line

#: Stage names, in pipeline order.
BEGIN = "begin"
SHARE_INTENT = "share-intent"
SHARE_UPLOADED = "share-uploaded"
DEBT = "debt"
COMMIT = "commit"

STAGES = (BEGIN, SHARE_INTENT, SHARE_UPLOADED, DEBT, COMMIT)

#: Stages appended with an fsync (the module docstring says why the
#: others may be lost).
BARRIERS = frozenset((BEGIN, SHARE_INTENT))

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

    def stage_records(self, stage: str) -> list[JournalRecord]:
        return [r for r in self.records if r.stage == stage]

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


class IntentJournal:
    """Append-only JSONL intent journal with atomic compaction.

    Records go through one :class:`AppendLog` descriptor, fsynced only
    at :data:`BARRIERS`.  The descriptor appends with ``O_APPEND``, so a
    successor generation can append to the path its crashed predecessor
    left open.  ``fsync=False`` keeps every write and skips every fsync.
    """

    def __init__(self, path: str | Path, clock=None, fsync: bool = True,
                 compact_after: int = 256):
        self._log = AppendLog(path, fsync)
        self.path = self._log.path
        self.clock = clock
        self.compact_after = max(1, compact_after)
        self._seq = max((r.seq for r in self._parse()[0]), default=-1) + 1
        self._commits_since_compact = 0
        # seq allocation + append are one step: records may arrive from
        # several threads, and on-disk seq order must match append order
        # (reentrant so commit's record() nests)
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
            self._commits_since_compact += 1
            if self._commits_since_compact >= self.compact_after:
                self.compact()

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
        """Drop committed intents; returns records removed.

        Incomplete intents keep every record.  Atomic: the survivors
        replace the journal in one rename (:meth:`AppendLog.rewrite`).
        """
        with self._lock:
            records, skipped = self._parse()
            done = {r.intent_id for r in records if r.stage == COMMIT}
            survivors = [r for r in records if r.intent_id not in done]
            removed = len(records) - len(survivors) + skipped
            if removed:
                self._log.rewrite(r.encode() for r in survivors)
            self._commits_since_compact = 0
            return removed
