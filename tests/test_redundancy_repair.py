"""Self-healing redundancy: degraded writes become debts, debts drain.

The acceptance scenario: a write while one provider is down lands with
``t <= shares < n`` and is *accepted* — but the deficit is recorded as
a durable debt, and once the fleet heals the daemon's repair pass
regenerates the missing shares from any ``t`` healthy ones and retires
the debt.  A kill-point sweep proves the repair itself is
crash-idempotent: re-dispersal is journaled as a ``migrate`` intent, so
recovery adopts landed shares and the next pass retires the debt with
zero transfers and zero duplicates.
"""

from __future__ import annotations

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.daemon import SyncDaemon
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.errors import SelectionError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.faults.plan import SimulatedCrash
from repro.recovery import IntentJournal
from repro.redundancy import DebtLedger, run_repair
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CONFIG = dict(key="heal-key", t=2, n=3, **SMALL_CHUNKS)

#: Uploads to csp2 fail while the sim clock is inside this window; the
#: fleet "heals" the moment the clock passes it.
OUTAGE_WINDOW = (0.0, 10.0)


def _outage_plan(seed, window=OUTAGE_WINDOW):
    return FaultPlan(
        [FaultSpec(kind=FaultKind.OUTAGE, csp_ids=("csp2",),
                   ops=("upload",), window_time=window)],
        seed=seed,
    )


def _client(providers, tmp_path, clock=None, client_id="alice"):
    """A client whose intents and debts share one log, as ``cyrus``'s."""
    clock = clock or SimClock()
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    journal = IntentJournal(tmp_path / "journal.jsonl", clock=clock,
                            fsync=False)
    return CyrusClient.create(
        providers, CyrusConfig(**CONFIG), client_id=client_id,
        engine=engine, journal=journal, debt_ledger=DebtLedger(journal),
    )


def _degraded_world(tmp_path, seed, window=OUTAGE_WINDOW):
    """Three providers, csp2 down for uploads: puts land with 2 < n
    shares.  Returns (client, inner providers, clock, put report)."""
    clock = SimClock()
    inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
    wrapped = [FaultyProvider(p, _outage_plan(seed, window), clock=clock)
               for p in inner]
    client = _client(wrapped, tmp_path, clock=clock)
    report = client.put("wounded.bin", deterministic_bytes(2600, seed=seed))
    return client, inner, clock, report


def _share_census(inner):
    """chunk-share object name -> number of providers holding it."""
    census: dict[str, int] = {}
    for provider in inner:
        for info in provider.list(prefix=""):
            name = info.name
            if len(name) == 40 and all(c in "0123456789abcdef"
                                       for c in name):
                census[name] = census.get(name, 0) + 1
    return census


def _assert_fully_redundant(client, inner):
    """Every chunk holds exactly n distinct shares, each stored once."""
    census = _share_census(inner)
    expected: set[str] = set()
    for chunk_id in client.chunk_table.all_chunk_ids():
        location = client.chunk_table.get(chunk_id)
        names = {chunk_share_object_name(i, chunk_id)
                 for i in range(location.n)}
        expected |= names
        for name in names:
            assert census.get(name, 0) == 1, (
                f"share {name[:12]} stored {census.get(name, 0)} times"
            )
    assert set(census) == expected, "orphan share objects on providers"


class TestDegradedWriteSurface:
    """Satellite: the degraded_chunks plumbing is live end to end."""

    def test_put_reports_and_records_the_deficit(self, tmp_path,
                                                 fault_seed):
        client, _inner, _clock, report = _degraded_world(
            tmp_path, fault_seed,
        )
        assert report.degraded_chunks, "outage write must report degraded"
        # the counter satellites ride on
        snap = client.obs.snapshot()
        assert snap.counter_total("cyrus_upload_degraded_chunks_total") == \
            len(report.degraded_chunks)
        assert snap.counter_total("cyrus_debt_recorded_total") >= 1
        # one open chunk debt per degraded chunk, blaming the dead
        # provider (the degraded metadata publish adds its own "meta"
        # debt on top)
        ledger = client.debt_ledger
        chunk_debts = [e for e in ledger.open_debts()
                       if e.kind == "chunk"]
        assert len(chunk_debts) == len(report.degraded_chunks)
        for chunk_id in report.degraded_chunks:
            entry = ledger.debt_for(chunk_id)
            assert entry is not None
            assert "csp2" in entry.failed_csps
            assert entry.missing  # at least one index short
        # each debt is a record of the client's one log
        assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]
        assert '"debt"' in (tmp_path / "journal.jsonl").read_text()

    def test_degraded_file_still_reads_back(self, tmp_path, fault_seed):
        client, _inner, _clock, _report = _degraded_world(
            tmp_path, fault_seed,
        )
        assert client.get("wounded.bin").data == \
            deterministic_bytes(2600, seed=fault_seed)


class TestSelfHealing:
    """The acceptance scenario, end to end through the daemon."""

    def test_daemon_drains_debt_once_fleet_heals(self, tmp_path,
                                                 fault_seed):
        client, inner, clock, report = _degraded_world(tmp_path, fault_seed)
        degraded = len(report.degraded_chunks)
        assert degraded >= 1

        # fleet heals: clock leaves the outage window and outlives the
        # circuit breaker's reset timeout
        clock.advance_to(100.0)
        daemon = SyncDaemon(client, interval_s=30.0, repair_budget=64)
        tick = daemon.tick()
        # every chunk debt plus the degraded publish's one meta debt
        assert tick.debts_retired == degraded + 1
        assert tick.debt_shares_rebuilt >= degraded
        assert tick.debts_open == 0
        assert len(client.debt_ledger) == 0

        # back to full n-way redundancy, verified at the providers
        _assert_fully_redundant(client, inner)
        scrub = client.scrub()
        assert scrub.shares_missing == 0
        assert scrub.shares_corrupt == 0
        assert client.get("wounded.bin").data == \
            deterministic_bytes(2600, seed=fault_seed)

        # metrics agree with the report
        snap = client.obs.snapshot()
        assert snap.counter_total("cyrus_debt_retired_total") == degraded + 1
        # an idle tick stays idle
        clock.advance(30.0)
        assert daemon.tick().debts_retired == 0

    def test_repair_waits_while_fleet_still_down(self, tmp_path,
                                                 fault_seed):
        """Backoff: while csp2 keeps refusing uploads, each due attempt
        fails once and the entry steps back exponentially."""
        client, _inner, clock, report = _degraded_world(
            tmp_path, fault_seed, window=(0.0, 10.0**9),
        )
        clock.advance_to(100.0)
        client.probe_failed_csps()  # listing works; only uploads fail
        first = run_repair(client)
        assert first.debts_retired == 0
        # chunk debts plus the meta debt all fail while csp2 refuses
        assert first.debts_failed == len(report.degraded_chunks) + 1
        [entry] = [client.debt_ledger.debt_for(c)
                   for c in report.degraded_chunks[:1]]
        assert entry.attempts >= 1

        # immediately re-running defers every entry: backoff not elapsed
        again = run_repair(client)
        assert again.debts_failed == 0
        assert again.debts_deferred == again.debts_seen
        # after the backoff window the entry is due (and fails) again
        clock.advance(31.0 * 2**entry.attempts)
        due = run_repair(client)
        assert due.debts_deferred < due.debts_seen
        later = client.debt_ledger.debt_for(entry.chunk_id)
        assert later.attempts > entry.attempts

    def test_budget_slices_the_repair(self, tmp_path, fault_seed):
        """A budget smaller than one chunk entry's cost (t gets + 1
        put) repairs no chunk; a real budget drains the ledger."""
        client, inner, clock, _report = _degraded_world(
            tmp_path, fault_seed,
        )
        clock.advance_to(100.0)
        client.probe_failed_csps()
        starved = run_repair(client, budget_shares=1)
        assert starved.budget_exhausted
        # at most the meta debt (one tiny slot overwrite, cost 1) fits;
        # every chunk entry needs t gets + 1 put and spends nothing
        assert starved.transfers_used <= 1
        assert {e.chunk_id for e in client.debt_ledger.open_debts()
                if e.kind == "chunk"} == set(_report.degraded_chunks)

        fed = run_repair(client, budget_shares=1000)
        assert fed.drained
        assert fed.transfers_used >= 3  # at least t gets + 1 put
        _assert_fully_redundant(client, inner)

    def test_debt_for_vanished_chunk_retires_moot(self, tmp_path):
        """A chunk gc'd (or never published) owes nothing."""
        clock = SimClock()
        inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
        client = _client(inner, tmp_path, clock=clock)
        client.debt_ledger.record("f" * 40, missing=(1,))
        report = run_repair(client)
        assert report.debts_retired == 1
        assert report.transfers_used == 0
        assert len(client.debt_ledger) == 0


class TestRepairSearchesSpareShares:
    def test_corrupt_share_among_the_first_t_is_searched_past(self,
                                                              tmp_path):
        """t=2, n=4 on five CSPs: index 3 deleted and owed, index 0
        bit-flipped.  The first t shares fetched do not verify, so the
        repair fetches the rest, finds a verifying subset, rewrites
        index 0 in place (blaming its CSP) and retires the debt."""
        clock = SimClock()
        inner = [InMemoryCSP(f"csp{i}") for i in range(5)]
        engine = DirectEngine({p.csp_id: p for p in inner}, clock=clock)
        client = CyrusClient.create(
            inner, CyrusConfig(key="heal-key", t=2, n=4, **SMALL_CHUNKS),
            client_id="alice", engine=engine,
            journal=IntentJournal(tmp_path / "journal.jsonl", clock=clock,
                                  fsync=False),
            debt_ledger=DebtLedger(tmp_path / "debts.jsonl", fsync=False),
        )
        data = deterministic_bytes(100, seed=5)  # one chunk
        client.put("one.bin", data)
        [chunk_id] = client.chunk_table.all_chunk_ids()
        at = dict(client.chunk_table.get(chunk_id).placements)
        by_id = {p.csp_id: p for p in inner}
        lost = chunk_share_object_name(3, chunk_id)
        by_id[at[3]].delete(lost)
        client.debt_ledger.record(chunk_id, missing=(3,),
                                  failed_csps=(at[3],))
        rotted = chunk_share_object_name(0, chunk_id)
        truth = by_id[at[0]].download(rotted)
        by_id[at[0]].upload(rotted, bytes([truth[0] ^ 0xFF]) + truth[1:])

        report = run_repair(client)
        assert report.debts_retired == 1
        assert not report.unrecoverable_chunks
        assert len(client.debt_ledger) == 0
        assert by_id[at[0]].download(rotted) == truth
        assert client.health.corruption_count(at[0]) == 1
        holders = {c for i, c in client.chunk_table.get(chunk_id).placements
                   if i == 3 and by_id[c].object_size(lost) is not None}
        assert holders and at[3] not in holders
        assert client.get("one.bin").data == data


class TestDebtReconciliation:
    """A put killed after its debt barrier and its publish, before its
    ``commit``: recovery acknowledges it, and the debt, already in the
    same log, stays open until repair drains it."""

    def test_rollforward_keeps_one_log_debt_open(self, tmp_path):
        clock = SimClock()
        inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
        client = _client(inner, tmp_path, clock=clock)
        data = deterministic_bytes(900, seed=3)
        client.put("ok.bin", data)
        [chunk_id] = list(client.chunk_table.all_chunk_ids())[:1]
        at = dict(client.chunk_table.get(chunk_id).placements)
        lost = chunk_share_object_name(2, chunk_id)
        next(p for p in inner if p.csp_id == at[2]).delete(lost)

        # hand-craft the crash remnant in one log: a put intent whose
        # node was published and which recorded a debt, but died before
        # its commit
        client.journal.begin("put", name="ok.bin",
                             node_id=client.tree.latest("ok.bin").node_id)
        debt_id = client.debt_ledger.record(chunk_id, missing=(2,),
                                            failed_csps=(at[2],))

        survivor = _client(inner, tmp_path, clock=clock)
        report = survivor.run_recovery()
        assert report.rolled_forward == 1 and report.rolled_back == 0
        entry = survivor.debt_ledger.debt_for(chunk_id)
        assert entry is not None and entry.debt_id == debt_id
        assert entry.missing == (2,)
        assert entry.failed_csps == (at[2],)
        # and the debt drains like any other
        assert run_repair(survivor).debts_open == 0
        assert survivor.get("ok.bin").data == data


class TestRepairKillPoints:
    """Satellite: crash anywhere between re-dispersal and retirement
    leaves the system idempotent — no duplicate shares, and the debt is
    eventually retired."""

    KILL_POINTS = range(0, 18)

    def test_sweep(self, tmp_path, fault_seed):
        base = deterministic_bytes(2600, seed=fault_seed)
        for kill_op in self.KILL_POINTS:
            world = tmp_path / f"k{kill_op}"
            world.mkdir()
            client, inner, clock, report = _degraded_world(
                world, fault_seed,
            )
            assert report.degraded_chunks
            del client  # generation one is gone

            # generation two repairs — and dies at provider op #kill_op
            crash_clock = SimClock(start=100.0)
            plan = FaultPlan(
                [FaultSpec(kind=FaultKind.CRASH,
                           window_ops=(kill_op, None), max_hits=1)],
                seed=fault_seed,
            )
            wrapped = [FaultyProvider(p, plan, clock=crash_clock)
                       for p in inner]
            try:
                victim = _client(wrapped, world, clock=crash_clock,
                                 client_id="victim")
                victim.run_recovery()
                victim.repair_debts()
            except SimulatedCrash:
                pass

            # generation three: recover, then finish the repair
            survivor = _client(inner, world,
                               clock=SimClock(start=1000.0),
                               client_id="survivor")
            recovery = survivor.run_recovery()
            assert recovery.incomplete_remaining == 0
            final = survivor.repair_debts()
            assert final.drained, f"kill point {kill_op}: debt not drained"
            assert len(survivor.debt_ledger) == 0
            _assert_fully_redundant(survivor, inner)
            scrub = survivor.scrub()
            assert scrub.shares_missing == 0
            assert scrub.shares_corrupt == 0
            assert survivor.get("wounded.bin").data == base
            assert survivor.run_recovery().clean


class TestDegradedPlacement:
    """A fixed-n put while a CSP is failed or full codes at n, places
    the shares that have a writable CSP and owes the rest; it neither
    shrinks n silently nor refuses while t CSPs can take shares."""

    def _world(self, tmp_path, fault_seed, spec):
        clock = SimClock()
        inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
        plan = FaultPlan([spec], seed=fault_seed)
        wrapped = [FaultyProvider(p, plan, clock=clock) for p in inner]
        return _client(wrapped, tmp_path, clock=clock), inner, clock

    def _put_three(self, client, fault_seed):
        """Three puts: the first finds csp2 broken, the others plan
        around it.  Every chunk is coded at n=3, held on 2 CSPs, owed."""
        reports = [client.put(f"f{i}.bin",
                              deterministic_bytes(2600, seed=fault_seed + i))
                   for i in range(3)]
        for report in reports:
            assert report.degraded_chunks
            for record in report.node.chunks:
                assert (record.t, record.n) == (2, 3)
            assert {s.csp_id for s in report.node.shares} == {"csp0", "csp1"}
        for report in reports[1:]:
            # planned around csp2: nothing was sent there
            assert all(r.op.csp_id != "csp2" for r in report.share_results)
            for chunk_id in report.degraded_chunks:
                assert client.debt_ledger.debt_for(chunk_id).missing
        owed = {c for r in reports for c in r.degraded_chunks}
        snap = client.obs.snapshot()
        assert snap.counter_total("cyrus_upload_degraded_chunks_total") == \
            len(owed)
        return owed

    def _heal(self, client, inner, fault_seed, owed):
        report = client.repair_debts()
        assert report.debts_retired >= len(owed)
        assert len(client.debt_ledger) == 0
        _assert_fully_redundant(client, inner)
        for i in range(3):
            assert client.get(f"f{i}.bin").data == \
                deterministic_bytes(2600, seed=fault_seed + i)

    def test_failed_csp_is_owed_not_dropped(self, tmp_path, fault_seed):
        client, inner, clock = self._world(tmp_path, fault_seed, FaultSpec(
            kind=FaultKind.OUTAGE, csp_ids=("csp2",), ops=("upload",),
            window_time=OUTAGE_WINDOW))
        owed = self._put_three(client, fault_seed)
        assert client.health.dark("csp2")
        clock.advance_to(100.0)
        assert client.probe_failed_csps() == ["csp2"]
        self._heal(client, inner, fault_seed, owed)

    def test_full_csp_is_owed_not_refused(self, tmp_path, fault_seed):
        client, inner, clock = self._world(tmp_path, fault_seed, FaultSpec(
            kind=FaultKind.QUOTA, csp_ids=("csp2",), ops=("upload",),
            window_time=OUTAGE_WINDOW))
        owed = self._put_three(client, fault_seed)
        assert client.cloud.is_write_full("csp2")
        clock.advance_to(100.0)
        client.cloud.mark_write_available("csp2")
        self._heal(client, inner, fault_seed, owed)

    def test_fewer_than_t_writable_refuses(self, tmp_path, fault_seed):
        client, _inner, _clock = self._world(tmp_path, fault_seed, FaultSpec(
            kind=FaultKind.OUTAGE, csp_ids=("csp2",), ops=("upload",),
            window_time=OUTAGE_WINDOW))
        client.health.trip("csp1")
        client.cloud.mark_write_full("csp2")
        with pytest.raises(SelectionError, match="need 2 writable"):
            client.put("f.bin", deterministic_bytes(2600, seed=fault_seed))
