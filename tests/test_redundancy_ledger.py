"""The redundancy-debt ledger: durability, merging, backoff, compaction.

The ledger is a view over the intent journal's debt records, so these
tests mirror the journal suite's shape: round-trip
through reopen, crash-torn tails, merge semantics, and atomic
compaction that preserves backoff state exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.redundancy import DebtEntry, DebtLedger
from repro.util.clock import SimClock


class TestRecordAndReopen:
    def test_round_trip_through_reopen(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        debt_id = ledger.record("a" * 40, missing=(2,),
                                failed_csps=("csp2",))
        assert len(ledger) == 1

        reopened = DebtLedger(path, fsync=False)
        [entry] = reopened.open_debts()
        assert entry.debt_id == debt_id
        assert entry.chunk_id == "a" * 40
        assert entry.missing == (2,)
        assert entry.failed_csps == ("csp2",)
        assert entry.attempts == 0

    def test_same_chunk_merges_into_one_debt(self, tmp_path):
        ledger = DebtLedger(tmp_path / "debts.jsonl", fsync=False)
        first = ledger.record("b" * 40, missing=(0,), failed_csps=("csp0",))
        second = ledger.record("b" * 40, missing=(2,), failed_csps=("csp1",))
        assert first == second  # one obligation per chunk
        [entry] = ledger.open_debts()
        assert entry.missing == (0, 2)
        assert entry.failed_csps == ("csp0", "csp1")

    def test_identical_re_record_appends_nothing(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        ledger.record("c" * 40, missing=(1,), failed_csps=("csp1",))
        lines = path.read_bytes().count(b"\n")
        ledger.record("c" * 40, missing=(1,), failed_csps=("csp1",))
        assert path.read_bytes().count(b"\n") == lines

    def test_retire_closes_and_survives_reopen(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        keep = ledger.record("d" * 40, missing=(0,))
        gone = ledger.record("e" * 40, missing=(1,))
        ledger.retire(gone)
        assert len(ledger) == 1
        reopened = DebtLedger(path, fsync=False)
        assert [e.debt_id for e in reopened.open_debts()] == [keep]

    def test_retire_unknown_debt_is_a_noop(self, tmp_path):
        ledger = DebtLedger(tmp_path / "debts.jsonl", fsync=False)
        ledger.retire("no-such-debt")
        assert len(ledger) == 0


class TestTornTail:
    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        ledger.record("a" * 40, missing=(0,))
        ledger.record("b" * 40, missing=(1,))
        # a crash mid-append can tear at most the final line
        with open(path, "ab") as handle:
            handle.write(b'{"kind":"debt","id":"torn","se')
        reopened = DebtLedger(path, fsync=False)
        assert len(reopened) == 2
        assert reopened.debt_for("a" * 40) is not None

    def test_alien_interior_lines_are_skipped(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        debt_id = ledger.record("a" * 40, missing=(0,))
        blob = path.read_bytes()
        path.write_bytes(
            b'not json at all\n' + blob + b'{"kind":"alien","x":1}\n'
        )
        reopened = DebtLedger(path, fsync=False)
        assert [e.debt_id for e in reopened.open_debts()] == [debt_id]

    def test_ledger_keeps_appending_after_a_torn_tail(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        ledger.record("a" * 40, missing=(0,))
        with open(path, "ab") as handle:
            handle.write(b'{"torn')  # no newline: the next append glues on
        reopened = DebtLedger(path, fsync=False)
        reopened.record("b" * 40, missing=(2,))
        # the glued line is lost, both clean records survive
        final = DebtLedger(path, fsync=False)
        assert {e.chunk_id for e in final.open_debts()} == {
            "a" * 40, "b" * 40,
        }

    def test_torn_tail_is_fenced_once_per_descriptor(self, tmp_path,
                                                     log_os):
        path = tmp_path / "debts.jsonl"
        path.write_bytes(b'{"kind":"debt","id":"torn","se')
        ledger = DebtLedger(path)
        first = ledger.record("a" * 40, missing=(0,))
        ledger.note_attempt(first)
        ledger.record("b" * 40, missing=(1,))
        # one open for three records, no probe per append; the fragment
        # stays one skipped line and every record after it survives
        assert log_os.calls["open"] == 1
        reopened = DebtLedger(path)
        assert reopened.journal._parse()[1] == 1
        assert sorted((e.chunk_id, e.attempts)
                      for e in reopened.open_debts()) == [
            ("a" * 40, 1), ("b" * 40, 0),
        ]


class TestBackoff:
    def test_never_tried_entry_is_due_immediately(self):
        entry = DebtEntry(debt_id="x", chunk_id="c", missing=(0,),
                          failed_csps=(), created=5.0)
        assert entry.next_due() == 5.0

    def test_backoff_doubles_per_attempt_and_caps(self):
        entry = DebtEntry(debt_id="x", chunk_id="c", missing=(0,),
                          failed_csps=(), created=0.0, attempts=1,
                          last_attempt=100.0)
        assert entry.next_due(base=30.0, multiplier=2.0) == 130.0
        later = DebtEntry(debt_id="x", chunk_id="c", missing=(0,),
                          failed_csps=(), attempts=3, last_attempt=100.0)
        assert later.next_due(base=30.0, multiplier=2.0) == 100.0 + 120.0
        capped = DebtEntry(debt_id="x", chunk_id="c", missing=(0,),
                           failed_csps=(), attempts=50, last_attempt=100.0)
        assert capped.next_due(max_delay=3600.0) == 100.0 + 3600.0

    def test_note_attempt_bumps_backoff_and_survives_reopen(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        clock = SimClock()
        ledger = DebtLedger(path, clock=clock, fsync=False)
        debt_id = ledger.record("a" * 40, missing=(0,))
        clock.advance(10.0)
        ledger.note_attempt(debt_id, detail="fleet down")
        [entry] = ledger.open_debts()
        assert entry.attempts == 1
        assert entry.last_attempt == 10.0
        reopened = DebtLedger(path, fsync=False)
        [persisted] = reopened.open_debts()
        assert persisted.attempts == 1
        assert persisted.last_attempt == 10.0


class TestCompaction:
    def test_compact_drops_retired_records(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        survivor = ledger.record("a" * 40, missing=(0,))
        for i in range(5):
            ledger.retire(ledger.record(f"{i}" * 40, missing=(1,)))
        removed = ledger.compact()
        assert removed == 10  # 5 debt + 5 retire records
        lines = [json.loads(line) for line in
                 path.read_text().splitlines() if line.strip()]
        assert all(doc["id"] == survivor for doc in lines)
        assert len(DebtLedger(path, fsync=False)) == 1

    def test_compaction_preserves_backoff_state(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        clock = SimClock()
        ledger = DebtLedger(path, clock=clock, fsync=False)
        debt_id = ledger.record("a" * 40, missing=(0, 1),
                                failed_csps=("csp0",))
        clock.advance(42.0)
        ledger.note_attempt(debt_id)
        ledger.note_attempt(debt_id)
        ledger.retire(ledger.record("b" * 40, missing=(2,)))
        ledger.compact()
        [entry] = DebtLedger(path, fsync=False).open_debts()
        assert entry.debt_id == debt_id
        assert entry.missing == (0, 1)
        assert entry.failed_csps == ("csp0",)
        assert entry.attempts == 2
        assert entry.last_attempt == 42.0

    def test_auto_compaction_after_enough_retires(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False, compact_after=4)
        for i in range(4):
            ledger.retire(ledger.record(f"{i}" * 40, missing=(0,)))
        # the threshold-triggering retire compacted everything away
        assert path.read_bytes() == b""

    def test_compact_on_all_open_ledger_is_a_noop(self, tmp_path):
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path, fsync=False)
        ledger.record("a" * 40, missing=(0,))
        before = path.read_bytes()
        assert ledger.compact() == 0
        assert path.read_bytes() == before


class TestGroupCommit:
    def test_only_debt_records_are_barriers(self, tmp_path, log_os):
        budget = json.loads(
            (Path(__file__).parent / "data" / "op_budget.json").read_text()
        )["journal_per_op"]
        ledger = DebtLedger(tmp_path / "debts.jsonl")
        ledger.record("0" * 40, missing=(0,))  # opens the descriptor
        debt_id, counts = log_os.measure(
            lambda: ledger.record("a" * 40, missing=(2,)))
        assert counts == budget["ledger_debt"]
        _, counts = log_os.measure(lambda: ledger.note_attempt(debt_id))
        assert counts == budget["ledger_attempt"]
        _, counts = log_os.measure(lambda: ledger.retire(debt_id))
        assert counts == budget["ledger_retire"]

    def test_power_loss_keeps_debts_and_may_reopen_a_retired_one(
            self, tmp_path, log_os):
        """A lost ``retire`` only reopens the debt (the next repair pass
        retires it again with zero transfers); a ``debt`` is never lost."""
        path = tmp_path / "debts.jsonl"
        ledger = DebtLedger(path)
        ledger.record("a" * 40, missing=(0,))
        ledger.retire(ledger.record("b" * 40, missing=(1,)))
        assert len(ledger) == 1
        log_os.power_loss(path)
        assert {e.chunk_id for e in DebtLedger(path).open_debts()} == {
            "a" * 40, "b" * 40,
        }
