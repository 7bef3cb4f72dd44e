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

Durability model — the same torn-tail-tolerant JSONL idiom as
:class:`repro.recovery.journal.IntentJournal`: each record is one JSON
line appended with flush + fsync, so a crash can at worst tear the
final line, and the parser skips undecodable lines instead of failing.
Retired debts are compacted away through a temp file + ``os.replace``.

Record kinds, in lifecycle order::

    debt(chunk, missing, failed)   the deficit was observed; re-records
                                   for the same chunk merge (union of
                                   indices and suspects) under one id
    attempt(ok, detail)            the repair loop tried and failed;
                                   drives the per-entry backoff
    retire                         the chunk is back to n verified
                                   shares (or no longer exists)
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import CyrusError

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


class DebtLedger:
    """Append-only JSONL debt ledger with atomic compaction.

    Mirrors the :class:`IntentJournal` open-per-write discipline: the
    directory is created once, at construction, and every append
    opens, writes one line, flushes, fsyncs and closes, so a crashed
    client generation and its successor can share the path without
    handle coordination.  The in-memory open-debt view is
    rebuilt from disk at construction and kept in step with every
    append, so reads never re-parse the file.
    """

    def __init__(self, path: str | Path, clock=None, fsync: bool = True,
                 compact_after: int = 256):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.clock = clock
        self.fsync = fsync
        self.compact_after = max(1, compact_after)
        self._lock = threading.RLock()
        self._open: dict[str, DebtEntry] = {}  # debt_id -> entry
        self._by_chunk: dict[str, str] = {}  # chunk_id -> open debt_id
        self._seq = 0
        self._retires_since_compact = 0
        self._load()

    # -- writing ----------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def _append(self, doc: dict) -> None:
        try:
            blob = (json.dumps(doc, sort_keys=True,
                               separators=(",", ":")) + "\n").encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"unencodable ledger record: {exc}") from exc
        with open(self.path, "ab") as handle:
            # a crash can leave a torn final line with no newline; start
            # a fresh line so the new record doesn't glue onto the wreck
            if handle.tell() > 0:
                with open(self.path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    if probe.read(1) != b"\n":
                        handle.write(b"\n")
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    @staticmethod
    def _chunk_key(chunk_id: str, kind: str) -> str:
        """Open-debt merge key: chunk and meta ids live in one 40-hex
        namespace, so the kind disambiguates (a legacy plain chunk id
        keys as ``chunk:<id>``)."""
        return f"{kind}:{chunk_id}"

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
            existing_id = self._by_chunk.get(self._chunk_key(chunk_id, kind))
            now = self._now()
            if existing_id is not None:
                entry = self._open[existing_id]
                merged = replace(
                    entry,
                    missing=tuple(sorted(set(entry.missing) | set(missing))),
                    failed_csps=tuple(sorted(
                        set(entry.failed_csps) | set(failed_csps)
                    )),
                )
                if merged == entry:
                    return existing_id  # nothing new to persist
                entry = merged
            else:
                entry = DebtEntry(
                    debt_id=uuid.uuid4().hex[:16],
                    chunk_id=chunk_id,
                    missing=tuple(sorted(set(missing))),
                    failed_csps=tuple(sorted(set(failed_csps))),
                    created=now,
                    kind=kind,
                )
            doc = {
                "kind": DEBT,
                "id": entry.debt_id,
                "seq": self._seq + 1,
                "time": now,
                "chunk": entry.chunk_id,
                "missing": list(entry.missing),
                "failed": list(entry.failed_csps),
            }
            # chunk-debt lines stay byte-identical to the pre-meta
            # format; only metadata debts carry the extra field
            if entry.kind != "chunk":
                doc["obj"] = entry.kind
            self._seq += 1
            self._append(doc)
            self._open[entry.debt_id] = entry
            self._by_chunk[self._chunk_key(chunk_id, entry.kind)] = entry.debt_id
            return entry.debt_id

    def note_attempt(self, debt_id: str, ok: bool = False,
                     detail: str = "") -> None:
        """Record one failed (or partial) repair try; bumps the backoff."""
        with self._lock:
            entry = self._open.get(debt_id)
            if entry is None:
                return
            now = self._now()
            self._seq += 1
            self._append({
                "kind": ATTEMPT, "id": debt_id, "seq": self._seq,
                "time": now, "ok": bool(ok), "detail": detail,
            })
            self._open[debt_id] = replace(
                entry, attempts=entry.attempts + 1, last_attempt=now,
            )

    def retire(self, debt_id: str) -> None:
        """Close a debt; periodically compacts the file."""
        with self._lock:
            entry = self._open.pop(debt_id, None)
            if entry is None:
                return
            self._by_chunk.pop(self._chunk_key(entry.chunk_id, entry.kind), None)
            self._seq += 1
            self._append({
                "kind": RETIRE, "id": debt_id, "seq": self._seq,
                "time": self._now(),
            })
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
            debt_id = self._by_chunk.get(self._chunk_key(chunk_id, kind))
            return self._open.get(debt_id) if debt_id is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._open)

    def _parse(self) -> tuple[list[dict], int]:
        """All decodable records in seq order plus skipped-line count.

        A torn final line (the one partial write a crash can produce)
        and any corrupt interior line are skipped, not fatal: the ledger
        must never be the component that blocks repair.
        """
        if not self.path.exists():
            return [], 0
        records: list[dict] = []
        skipped = 0
        for line in self.path.read_bytes().split(b"\n"):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
                if (not isinstance(doc, dict) or doc.get("kind") not in KINDS
                        or "id" not in doc):
                    skipped += 1
                    continue
                records.append(doc)
            except (UnicodeDecodeError, ValueError):
                skipped += 1
        records.sort(key=lambda d: int(d.get("seq", 0)))
        return records, skipped

    def _load(self) -> None:
        records, _skipped = self._parse()
        open_entries: dict[str, DebtEntry] = {}
        by_chunk: dict[str, str] = {}
        max_seq = 0
        for doc in records:
            try:
                debt_id = str(doc["id"])
                kind = str(doc["kind"])
                seq = int(doc.get("seq", 0))
                time = float(doc.get("time", 0.0))
            except (TypeError, ValueError):
                continue
            max_seq = max(max_seq, seq)
            if kind == DEBT:
                try:
                    chunk_id = str(doc["chunk"])
                    missing = tuple(sorted(int(i) for i in doc["missing"]))
                    failed = tuple(sorted(str(c) for c in doc.get("failed", ())))
                    obj_kind = str(doc.get("obj", "chunk"))
                except (KeyError, TypeError, ValueError):
                    continue
                prior = open_entries.get(debt_id)
                if prior is None:
                    open_entries[debt_id] = DebtEntry(
                        debt_id=debt_id, chunk_id=chunk_id,
                        missing=missing, failed_csps=failed, created=time,
                        kind=obj_kind,
                    )
                else:
                    open_entries[debt_id] = replace(
                        prior,
                        missing=tuple(sorted(set(prior.missing) | set(missing))),
                        failed_csps=tuple(sorted(
                            set(prior.failed_csps) | set(failed)
                        )),
                    )
                by_chunk[self._chunk_key(chunk_id, obj_kind)] = debt_id
            elif kind == ATTEMPT:
                prior = open_entries.get(debt_id)
                if prior is not None:
                    open_entries[debt_id] = replace(
                        prior, attempts=prior.attempts + 1, last_attempt=time,
                    )
            elif kind == RETIRE:
                prior = open_entries.pop(debt_id, None)
                if prior is not None:
                    by_chunk.pop(self._chunk_key(prior.chunk_id, prior.kind),
                                 None)
        with self._lock:
            self._open = open_entries
            self._by_chunk = by_chunk
            self._seq = max_seq

    # -- compaction -------------------------------------------------------

    def compact(self) -> int:
        """Drop records of retired debts; returns lines removed.

        Open debts are rewritten as one merged ``debt`` record plus one
        synthetic ``attempt`` per recorded try, preserving the backoff
        state exactly.  Atomic: survivors go to a temp file that
        replaces the ledger in one rename.
        """
        with self._lock:
            records, skipped = self._parse()
            keep = {e.debt_id for e in self._open.values()}
            removed = sum(1 for d in records
                          if str(d.get("id")) not in keep) + skipped
            if removed == 0:
                self._retires_since_compact = 0
                return 0
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "wb") as handle:
                seq = 0
                for entry in sorted(self._open.values(),
                                    key=lambda e: (e.created, e.debt_id)):
                    seq += 1
                    doc = {
                        "kind": DEBT, "id": entry.debt_id, "seq": seq,
                        "time": entry.created, "chunk": entry.chunk_id,
                        "missing": list(entry.missing),
                        "failed": list(entry.failed_csps),
                    }
                    if entry.kind != "chunk":
                        doc["obj"] = entry.kind
                    handle.write((json.dumps(
                        doc, sort_keys=True, separators=(",", ":")) + "\n")
                        .encode("utf-8"))
                    for _ in range(entry.attempts):
                        seq += 1
                        handle.write((json.dumps({
                            "kind": ATTEMPT, "id": entry.debt_id, "seq": seq,
                            "time": entry.last_attempt, "ok": False,
                            "detail": "(compacted)",
                        }, sort_keys=True, separators=(",", ":")) + "\n")
                            .encode("utf-8"))
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            self._seq = seq
            self._retires_since_compact = 0
            return removed
