"""The write-ahead intent journal: records, parsing, compaction.

The journal is the crash-consistency substrate, so its own failure
modes get direct coverage: torn tails must be skipped (never fatal),
compaction must be atomic and keep incomplete intents, and a record
must round-trip encode/decode byte-exactly for any JSON-safe payload
(hypothesis property).
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.recovery import (
    BEGIN,
    COMMIT,
    SHARE_INTENT,
    STAGES,
    IntentJournal,
    JournalError,
    JournalRecord,
)
from repro.redundancy import DebtLedger
from repro.util.clock import SimClock

from tests.conftest import deterministic_bytes


# -- encode/decode round-trip (hypothesis) --------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)

records = st.builds(
    JournalRecord,
    intent_id=st.text(
        alphabet="0123456789abcdef", min_size=1, max_size=16
    ),
    stage=st.sampled_from(STAGES),
    seq=st.integers(min_value=0, max_value=2**31),
    op=st.sampled_from(("", "put", "delete", "gc", "migrate")),
    time=st.floats(min_value=0, allow_nan=False, allow_infinity=False,
                   width=32),
    fields=st.dictionaries(
        st.text(min_size=1, max_size=10), json_values, max_size=4
    ),
)


class TestRecordRoundTrip:
    @given(record=records)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_is_identity(self, record):
        assert JournalRecord.decode(record.encode()) == record

    @given(record=records)
    @settings(max_examples=50, deadline=None)
    def test_encoding_is_one_clean_json_line(self, record):
        blob = record.encode()
        assert blob.endswith(b"\n")
        assert b"\n" not in blob[:-1]  # JSON escapes embedded newlines
        json.loads(blob)  # and it is honest JSON

    def test_unknown_stage_rejected(self):
        with pytest.raises(JournalError):
            JournalRecord(intent_id="a", stage="frobnicate").encode()

    def test_unencodable_fields_rejected(self):
        record = JournalRecord(intent_id="a", stage=BEGIN,
                               fields={"x": object()})
        with pytest.raises(JournalError):
            record.encode()

    def test_garbage_line_rejected(self):
        with pytest.raises(JournalError):
            JournalRecord.decode(b"{not json")
        with pytest.raises(JournalError):
            JournalRecord.decode(b'{"seq": 1}')  # missing id/stage/time


# -- the journal file ------------------------------------------------------

@pytest.fixture
def journal(tmp_path):
    return IntentJournal(tmp_path / "journal.jsonl", clock=SimClock())


class TestIntentJournal:
    def test_begin_record_commit_lifecycle(self, journal):
        iid = journal.begin(
            "put", name="a.bin",
            placements=[{"chunk": "c1", "csp": "csp0", "object": "o1"}],
        )
        journal.record(iid, SHARE_INTENT,
                       chunk="c1", csp="csp0", object="o1")
        assert [i.intent_id for i in journal.incomplete()] == [iid]
        journal.commit(iid)
        assert journal.incomplete() == []
        [intent] = journal.intents()
        assert intent.committed and intent.op == "put"
        assert [r.stage for r in intent.records] == [
            BEGIN, SHARE_INTENT, COMMIT
        ]

    def test_unknown_op_rejected(self, journal):
        with pytest.raises(JournalError):
            journal.begin("format-disk")

    def test_planned_shares_dedupes_across_stages(self, journal):
        iid = journal.begin(
            "put",
            placements=[{"chunk": "c1", "csp": "csp0", "object": "o1"},
                        {"chunk": "c1", "csp": "csp1", "object": "o1"}],
        )
        # two failover re-plans of the same object: the rollback set
        # must list (csp2, o1) exactly once
        journal.record(iid, SHARE_INTENT, chunk="c1", csp="csp2",
                       object="o1")
        journal.record(iid, SHARE_INTENT, chunk="c1", csp="csp2",
                       object="o1")
        [intent] = journal.intents()
        assert intent.planned_shares() == [
            ("c1", "csp0", "o1"), ("c1", "csp1", "o1"), ("c1", "csp2", "o1"),
        ]

    def test_torn_tail_is_skipped_not_fatal(self, journal):
        iid = journal.begin("put", placements=[])
        journal.commit(iid)
        iid2 = journal.begin("delete", placements=[])
        # the one partial write a crash can produce: a torn last line
        with open(journal.path, "ab") as handle:
            handle.write(b'{"id":"zzzz","seq":99,"stage":"share-in')
        reopened = IntentJournal(journal.path)
        assert [i.intent_id for i in reopened.incomplete()] == [iid2]

    def test_interior_corruption_is_skipped(self, journal):
        iid = journal.begin("put", placements=[])
        lines = journal.path.read_bytes().splitlines(keepends=True)
        journal.path.write_bytes(b"\x00\xffnot a record\n" + b"".join(lines))
        reopened = IntentJournal(journal.path)
        assert [i.intent_id for i in reopened.incomplete()] == [iid]

    def test_seq_continues_across_generations(self, journal):
        journal.begin("put", placements=[])
        highest = max(r.seq for r in journal._parse()[0])
        successor = IntentJournal(journal.path)
        iid = successor.begin("delete", placements=[])
        begin = [i for i in successor.intents()
                 if i.intent_id == iid][0].first(BEGIN)
        assert begin.seq > highest

    def test_compaction_drops_committed_keeps_incomplete(self, journal):
        done = journal.begin("put", placements=[])
        journal.record(done, SHARE_INTENT, chunk="c", csp="x", object="o")
        journal.commit(done)
        open_iid = journal.begin(
            "put", placements=[{"chunk": "c2", "csp": "y", "object": "o2"}]
        )
        journal.record(open_iid, SHARE_INTENT,
                       chunk="c2", csp="y", object="o2")
        removed = journal.compact()
        assert removed == 3  # begin + share-intent + commit
        [survivor] = journal.intents()
        assert survivor.intent_id == open_iid
        assert len(survivor.records) == 2  # nothing of the open intent lost
        assert survivor.planned_shares() == [("c2", "y", "o2")]
        # idempotent: nothing left to drop
        assert journal.compact() == 0

    def test_commit_autocompacts_after_threshold(self, tmp_path):
        journal = IntentJournal(tmp_path / "j.jsonl", compact_after=3)
        for _ in range(3):
            journal.commit(journal.begin("put", placements=[]))
        assert journal.intents() == []  # threshold hit, file compacted
        assert journal._closed_since_compact == 0

    def test_compaction_leaves_no_temp_file(self, journal, tmp_path):
        journal.commit(journal.begin("put", placements=[]))
        journal.compact()
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_missing_file_reads_empty(self, tmp_path):
        journal = IntentJournal(tmp_path / "never-written.jsonl")
        assert journal.intents() == []
        assert journal.incomplete() == []

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        # a predecessor died mid-line; the successor's first record must
        # not glue onto the fragment, or its intent could never replay
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"id":"dead","seq":0,"stage":"beg')
        iid = IntentJournal(path).begin("put", placements=[])
        assert [i.intent_id for i in IntentJournal(path).incomplete()] == [iid]

    def test_append_after_compaction_lands_in_the_new_file(self, journal):
        journal.commit(journal.begin("put", placements=[]))
        journal.record(journal.begin("put", placements=[]), SHARE_INTENT)
        assert journal.compact() == 2
        # the descriptor must follow the rename, not the replaced inode
        iid = journal.begin("delete", placements=[])
        assert iid in {i.intent_id for i in
                       IntentJournal(journal.path).incomplete()}

    def test_compaction_fsyncs_the_directory(self, journal, log_os):
        journal.commit(journal.begin("put", placements=[]))
        journal.compact()
        parent = journal.path.parent.stat()
        assert (parent.st_dev, parent.st_ino) in log_os.durable

    def test_begin_without_commit_from_torn_begin_is_ignored(self, journal):
        # records whose begin line was the torn one are unreplayable:
        # they must not surface as incomplete intents
        record = JournalRecord(intent_id="feed", stage=SHARE_INTENT,
                               seq=500, fields={"chunk": "c"})
        with open(journal.path, "ab") as handle:
            handle.write(record.encode())
        assert journal.incomplete() == []
        assert len(journal.intents()) == 1  # still visible to inspection


class TestOneLogThreads:
    def test_intents_and_debts_from_many_threads(self, tmp_path):
        """Intents and debts appended from more threads than cores, with
        compactions in between, share one seq order, and a reopen folds
        the same open debts."""
        journal = IntentJournal(tmp_path / "journal.jsonl", fsync=False,
                                compact_after=16)
        ledger = DebtLedger(journal)
        errors: list[BaseException] = []

        def worker(w: int) -> None:
            try:
                for i in range(40):
                    iid = journal.begin("put", placements=[])
                    debt_id = ledger.record(f"{w:02x}{i:038x}",
                                            missing=(i % 3,))
                    ledger.note_attempt(debt_id)
                    if i % 2:
                        ledger.retire(debt_id)
                    journal.commit(iid)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        seqs = [r.seq for r in journal._parse()[0]]
        assert len(seqs) == len(set(seqs))
        assert len(ledger) == 8 * 20
        assert all(e.attempts == 1 for e in ledger.open_debts())
        reopened = IntentJournal(journal.path)
        assert reopened.open_debts() == journal.open_debts()
        assert reopened.incomplete() == []


# -- group commit: the pinned per-op syscall budget -----------------------

BUDGET = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["journal_per_op"]


class TestGroupCommitBudget:
    """A change to any of these counts is a reviewed diff of
    ``op_budget.json``, not a silent drift."""

    @pytest.fixture
    def client(self, tmp_path):
        clock = SimClock()
        providers = [InMemoryCSP(f"csp{i}") for i in range(3)]
        engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
        client = CyrusClient.create(
            providers, CyrusConfig(key="budget-key", t=2, n=3),
            client_id="alice", engine=engine,
            journal=IntentJournal(tmp_path / "journal.jsonl", clock=clock),
        )
        client.put("warm.bin", deterministic_bytes(2048, seed=1))
        return client

    def test_fault_free_one_chunk_put(self, client, log_os):
        report, counts = log_os.measure(
            lambda: client.put("a.bin", deterministic_bytes(2048, seed=2)))
        assert report.new_chunks == 1 and not report.degraded_chunks
        assert counts == BUDGET["put_one_chunk"]

    def test_tombstone_delete(self, client, log_os):
        _, counts = log_os.measure(lambda: client.delete("warm.bin"))
        assert counts == BUDGET["tombstone_delete"]

    def test_degraded_put(self, tmp_path, log_os):
        """csp2's uploads go dark after a warm-up put opened the log: the
        next put owes a chunk and a metadata debt, each written once, as
        a barrier of the same log as its ``begin`` and ``commit``."""
        clock = SimClock()
        dark = FaultPlan([FaultSpec(
            kind=FaultKind.OUTAGE, csp_ids=("csp2",), ops=("upload",),
            window_time=(1.0, float("inf")),
        )])
        providers = [FaultyProvider(InMemoryCSP(f"csp{i}"), dark, clock=clock)
                     for i in range(3)]
        engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
        journal = IntentJournal(tmp_path / "journal.jsonl", clock=clock)
        client = CyrusClient.create(
            providers, CyrusConfig(key="budget-key", t=2, n=3),
            client_id="alice", engine=engine, journal=journal,
            debt_ledger=DebtLedger(journal),
        )
        client.put("warm.bin", deterministic_bytes(2048, seed=1))
        clock.advance(1.0)
        report, counts = log_os.measure(
            lambda: client.put("a.bin", deterministic_bytes(2048, seed=2)))
        assert report.new_chunks == 1 and len(report.degraded_chunks) == 1
        assert sorted(e.kind for e in client.debt_ledger.open_debts()) == [
            "chunk", "meta"]
        assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]
        assert counts == BUDGET["put_degraded"]
