"""The write-ahead intent journal.

A CYRUS ``put`` is only durable once its metadata node is visible at
``t`` metadata slots; everything before that — the scattered chunk
shares — is invisible garbage if the client process dies mid-flight.
The journal closes that window with DepSky-style commit discipline made
explicit: before touching any provider, the client appends a ``begin``
record naming every share object it *intends* to create, then appends
progress records as the pipeline advances, and finally a ``commit``
record once local state reflects the published node.  On restart,
:mod:`repro.recovery.recover` replays any intent without a ``commit``.

Record stages, in pipeline order::

    begin(put|delete|gc|migrate)   what is about to happen + planned
                                   share placements (the rollback set)
    share-intent                   a failover re-planned one share onto
                                   a new CSP (extends the rollback set)
    share-uploaded(csp, object)    one share landed
    debt(chunk, missing, failed)   a chunk reached t but not n stored
                                   shares — a redundancy debt recovery
                                   must reconcile into the debt ledger
    meta-intent                    the encoded node about to be
                                   published (the roll-forward payload)
    meta-published                 >= t metadata shares landed
    commit                         local tree/table updated; intent done

Durability model: each record is one JSON line appended with flush +
fsync, so a crash can at worst tear the *final* line — the parser drops
an undecodable tail instead of failing.  The file is compacted
(committed intents dropped) through a temp file + ``os.replace``, the
same atomic-rename discipline the snapshot writer uses, so a crash
during compaction leaves either the old or the new journal, never a
mix.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CyrusError

#: Stage names, in pipeline order.
BEGIN = "begin"
SHARE_INTENT = "share-intent"
SHARE_UPLOADED = "share-uploaded"
DEBT = "debt"
META_INTENT = "meta-intent"
META_PUBLISHED = "meta-published"
COMMIT = "commit"

STAGES = (BEGIN, SHARE_INTENT, SHARE_UPLOADED, DEBT, META_INTENT,
          META_PUBLISHED, COMMIT)

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
            return (json.dumps(doc, sort_keys=True,
                               separators=(",", ":")) + "\n").encode("utf-8")
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

    def has_stage(self, stage: str) -> bool:
        return any(r.stage == stage for r in self.records)

    def stage_records(self, stage: str) -> list[JournalRecord]:
        return [r for r in self.records if r.stage == stage]

    def first(self, stage: str) -> JournalRecord | None:
        for record in self.records:
            if record.stage == stage:
                return record
        return None

    def planned_shares(self) -> list[tuple[str, str, str]]:
        """Every ``(chunk_id, csp, object)`` this intent may have
        created: the ``begin`` placements plus failover re-plans plus
        anything confirmed uploaded — the rollback set."""
        out: list[tuple[str, str, str]] = []
        seen: set[tuple[str, str]] = set()
        begin = self.first(BEGIN)
        sources: list[dict] = []
        if begin is not None:
            sources.extend(begin.fields.get("placements", ()))
        for record in self.records:
            if record.stage in (SHARE_INTENT, SHARE_UPLOADED):
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

    The journal's directory is created once, at construction.  Every
    append opens, writes one full line, flushes, fsyncs and closes —
    slow by database standards, but a CYRUS client journals a handful
    of records per put, and the open-per-write discipline means two
    client generations (the crashed one and its successor) can use the
    same path without handle coordination.
    """

    def __init__(self, path: str | Path, clock=None, fsync: bool = True,
                 compact_after: int = 256):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        self.fsync = fsync
        self.compact_after = max(1, compact_after)
        self._seq = self._max_seq() + 1
        self._commits_since_compact = 0
        # seq allocation + file append must be one atomic step: pool
        # workers journal share-uploaded records concurrently, and the
        # lock guarantees the on-disk seq order matches append order —
        # records of one intent stay ordered-per-intent (reentrant so
        # commit's record() nests)
        self._lock = threading.RLock()

    # -- writing ----------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _append(self, record: JournalRecord) -> JournalRecord:
        blob = record.encode()
        with open(self.path, "ab") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        return record

    def begin(self, op: str, **fields) -> str:
        """Open a new intent; returns its id."""
        if op not in OPS:
            raise JournalError(f"unknown journal op {op!r}")
        intent_id = uuid.uuid4().hex[:16]
        with self._lock:
            record = JournalRecord(
                intent_id=intent_id, stage=BEGIN, seq=self._seq, op=op,
                time=self._now(), fields=fields,
            )
            self._seq += 1
            self._append(record)
        return intent_id

    def record(self, intent_id: str, stage: str, **fields) -> JournalRecord:
        """Append one progress record to an open intent."""
        with self._lock:
            record = JournalRecord(
                intent_id=intent_id, stage=stage, seq=self._seq,
                time=self._now(), fields=fields,
            )
            self._seq += 1
            return self._append(record)

    def commit(self, intent_id: str, outcome: str = "committed") -> None:
        """Close an intent; periodically compacts the file."""
        with self._lock:
            self.record(intent_id, COMMIT, outcome=outcome)
            self._commits_since_compact += 1
            if self._commits_since_compact >= self.compact_after:
                self.compact()

    # -- reading ----------------------------------------------------------

    def _parse(self) -> tuple[list[JournalRecord], int]:
        """All decodable records plus the count of skipped lines.

        A torn final line (the one partial write a crash can produce)
        and any corrupt interior line are skipped, not fatal: the
        journal must never be the component that prevents recovery.
        """
        if not self.path.exists():
            return [], 0
        records: list[JournalRecord] = []
        skipped = 0
        for line in self.path.read_bytes().split(b"\n"):
            if not line.strip():
                continue
            try:
                records.append(JournalRecord.decode(line))
            except JournalError:
                skipped += 1
        records.sort(key=lambda r: r.seq)
        return records, skipped

    def _max_seq(self) -> int:
        records, _ = self._parse()
        return max((r.seq for r in records), default=-1)

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

        Incomplete intents keep every record.  Atomic: the survivors are
        written to a temp file that replaces the journal in one rename.
        """
        records, skipped = self._parse()
        keep_ids = {i.intent_id for i in self.intents() if not i.committed}
        survivors = [r for r in records if r.intent_id in keep_ids]
        removed = len(records) - len(survivors) + skipped
        if removed == 0:
            self._commits_since_compact = 0
            return 0
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for record in survivors:
                handle.write(record.encode())
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._commits_since_compact = 0
        return removed
