"""Crash chaos: kill the client at every injected point, then recover.

The ISSUE's acceptance scenario.  Each test runs three client
generations over the same providers and the same journal file:

* **warmup** — a fault-free client stores baseline files;
* **victim** — a fresh client runs one operation against providers
  wrapped with ``FaultKind.CRASH`` armed at the k-th op, so the process
  "dies" (``SimulatedCrash``) at a different pipeline point for every
  ``k`` — before the scatter, between share uploads, around the
  metadata publish;
* **survivor** — a fresh client over the bare providers replays the
  journal via :func:`recover_client`.

After recovery the ground truth (a raw listing of every provider) must
show zero orphan shares, no metadata share of a node the survivor's
tree lacks, every stored chunk with >= t live shares, all committed
files byte-intact — and a second recovery run must be a no-op.

The put, delete and degraded-put sweeps run under two crash models.
``process``: the process dies, every journal record it wrote survives
in the kernel.  ``power``: the machine dies, so the journal keeps only
what its last fsync barrier made durable — the sweep cuts the file back
to that prefix before the survivor starts, which is what makes the
barrier set (:data:`repro.recovery.journal.BARRIERS`) a tested claim.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.faults.plan import SimulatedCrash
from repro.metadata.codec import METADATA_PREFIX, parse_metadata_share_name
from repro.recovery import IntentJournal
from repro.redundancy import DebtLedger
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CONFIG = dict(key="crash-key", t=2, n=3, **SMALL_CHUNKS)

#: Kill points swept per operation.  The victim op spends at most ~8
#: ops per provider (sync lists + share uploads + metadata publish), so
#: this range covers every journal stage plus a tail where no crash
#: fires at all (the control case).
KILL_POINTS = range(0, 12)

#: The kill-point sweep under both crash models; the process-crash ids
#: stay the bare kill point.
SWEEP = [pytest.param(k, "process", id=str(k)) for k in KILL_POINTS] + [
    pytest.param(k, "power", id=f"power-{k}") for k in KILL_POINTS
]

#: A degraded put also dies before each of its log appends (``begin``,
#: one ``debt`` per short chunk, the metadata ``debt``, ``commit``): no
#: provider op separates the publish from the records after it.
LOG_KILL_POINTS = range(0, 10)
DEGRADED_SWEEP = [
    pytest.param(where, k, durability,
                 id=f"{'' if durability == 'process' else 'power-'}{where}-{k}")
    for durability in ("process", "power")
    for where, points in (("op", KILL_POINTS), ("append", LOG_KILL_POINTS))
    for k in points
]


def _client(providers, journal_path, clock=None, fsync=False, debts=False):
    """A client on ``journal_path``; ``debts`` keeps its redundancy
    debts in the same log, as ``cyrus`` does."""
    clock = clock or SimClock()
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    journal = IntentJournal(journal_path, clock=clock, fsync=fsync)
    return CyrusClient.create(
        providers, CyrusConfig(**CONFIG), client_id="alice",
        engine=engine, journal=journal,
        debt_ledger=DebtLedger(journal) if debts else None,
    )


def _crash_world(inner, journal_path, kill_op, fsync=False):
    """A victim client whose k-th provider op raises SimulatedCrash."""
    clock = SimClock()
    plan = FaultPlan(
        [FaultSpec(kind=FaultKind.CRASH, window_ops=(kill_op, None),
                   max_hits=1)],
        seed=0,
    )
    wrapped = [FaultyProvider(p, plan, clock=clock) for p in inner]
    return _client(wrapped, journal_path, clock=clock, fsync=fsync)


def _die_before_append(journal, k):
    """Make ``journal``'s k-th append from now raise SimulatedCrash
    before its record is written."""
    log = journal._log
    append = log.append
    calls = itertools.count()

    def dying(line, barrier):
        if next(calls) >= k:
            raise SimulatedCrash(f"client died before log append #{k}")
        append(line, barrier)

    log.append = dying


def _ground_truth(inner):
    """Raw per-provider listing of chunk-share objects (40-hex names);
    metadata shares (``md-*``) are named differently and excluded."""
    out = {}
    for provider in inner:
        out[provider.csp_id] = {
            info.name for info in provider.list(prefix="")
            if len(info.name) == 40
            and all(ch in "0123456789abcdef" for ch in info.name)
        }
    return out


def _assert_invariants(client, inner):
    """The acceptance criteria: no orphans, >= t shares per chunk, and
    no metadata share of a node the client's tree lacks."""
    for provider in inner:
        for info in provider.list(prefix=METADATA_PREFIX):
            node_id, _index = parse_metadata_share_name(info.name)
            assert node_id in client.tree, (
                f"{provider.csp_id} holds metadata garbage: {info.name}")
    truth = _ground_truth(inner)
    expected: set[str] = set()
    for chunk_id in client.chunk_table.all_chunk_ids():
        location = client.chunk_table.get(chunk_id)
        names = {
            chunk_share_object_name(index, chunk_id)
            for index in range(location.n)
        }
        expected |= names
        live = sum(
            1 for objects in truth.values() for name in objects
            if name in names
        )
        assert live >= location.t, (
            f"chunk {chunk_id[:8]} has {live} < t={location.t} live shares"
        )
    for csp_id, objects in truth.items():
        orphans = objects - expected
        assert not orphans, f"{csp_id} holds orphan shares: {orphans}"
    return truth


class TestCrashDuringPut:
    @pytest.mark.parametrize("kill_op, durability", SWEEP)
    def test_recovery_restores_invariants(self, tmp_path, kill_op,
                                          durability, fault_seed, log_os):
        power = durability == "power"
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        warmup = _client(inner, journal_path, fsync=power)
        stable = deterministic_bytes(2500, seed=fault_seed)
        warmup.put("stable.bin", stable)

        victim = _crash_world(inner, journal_path, kill_op, fsync=power)
        attempted = deterministic_bytes(3100, seed=fault_seed + 1)
        crashed = False
        try:
            victim.put("victim.bin", attempted)
        except SimulatedCrash:
            crashed = True
        if power:
            log_os.power_loss(journal_path)

        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        survivor.sync()
        assert report.incomplete_remaining == 0
        truth = _assert_invariants(survivor, inner)

        # the warmup file survives any crash point, byte-intact
        assert survivor.get("stable.bin").data == stable
        # the victim file is atomic: fully there or fully absent
        visible = {e.name for e in survivor.list_files(sync_first=False)}
        if "victim.bin" in visible:
            assert survivor.get("victim.bin").data == attempted
        else:
            assert crashed  # invisible only because the put was killed

        # recovery is idempotent: a second run is a no-op
        again = survivor.run_recovery()
        assert again.clean
        assert _ground_truth(inner) == truth

    def test_uncrashed_control_leaves_clean_journal(self, tmp_path,
                                                    fault_seed):
        """A kill point past the op count: nothing fires, nothing to
        recover — proves the sweep's tail is a genuine control."""
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
        victim = _crash_world(inner, journal_path, kill_op=10**6)
        data = deterministic_bytes(1500, seed=fault_seed)
        victim.put("calm.bin", data)
        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        assert report is not None and report.clean
        assert survivor.get("calm.bin").data == data

    def test_rollforward_metrics_match_report(self, tmp_path, fault_seed):
        """Kill just before the commit record: all shares + metadata
        landed, so recovery must roll forward, and the counters must
        agree with the report."""
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        # find the kill point that produces a roll-forward by sweeping
        for kill_op in KILL_POINTS:
            world = [InMemoryCSP(f"csp{i}") for i in range(4)]
            jp = tmp_path / f"probe-{kill_op}.jsonl"
            victim = _crash_world(world, jp, kill_op)
            try:
                victim.put("f.bin", deterministic_bytes(3100, seed=1))
            except SimulatedCrash:
                pass
            survivor = _client(world, jp)
            report = survivor.run_recovery()
            snap = survivor.obs.snapshot()
            assert snap.counter_total(
                "cyrus_recovery_rollforward_total"
            ) == report.rolled_forward
            assert snap.counter_total(
                "cyrus_recovery_rollback_total"
            ) == report.rolled_back
            assert snap.counter_total(
                "cyrus_recovery_shares_deleted_total"
            ) == report.shares_deleted
            if report.rolled_forward:
                assert survivor.get("f.bin").data == \
                    deterministic_bytes(3100, seed=1)
        del inner, journal_path  # the sweep above is the whole test


class TestCrashDuringDelete:
    @pytest.mark.parametrize("kill_op, durability", SWEEP)
    def test_delete_is_atomic_across_crashes(self, tmp_path, kill_op,
                                             durability, fault_seed, log_os):
        power = durability == "power"
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        warmup = _client(inner, journal_path, fsync=power)
        data = deterministic_bytes(2200, seed=fault_seed)
        warmup.put("doomed.bin", data)

        victim = _crash_world(inner, journal_path, kill_op, fsync=power)
        try:
            victim.delete("doomed.bin")
        except SimulatedCrash:
            pass
        if power:
            log_os.power_loss(journal_path)

        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        survivor.sync()
        assert report.incomplete_remaining == 0
        _assert_invariants(survivor, inner)
        visible = {e.name for e in survivor.list_files(sync_first=False)}
        if "doomed.bin" in visible:
            # delete rolled back: the file must still read intact
            assert survivor.get("doomed.bin").data == data
        assert survivor.run_recovery().clean


class TestCrashDuringGC:
    @pytest.mark.parametrize("kill_op", KILL_POINTS)
    def test_gc_rolls_forward_after_crash(self, tmp_path, kill_op,
                                          fault_seed):
        """Crash mid prune/collection: the journaled doomed set is
        re-deleted on recovery, and whatever garbage a *pre-journal*
        crash stranded (the journal cannot describe work never begun)
        is exactly what the anti-entropy scrub's orphan pass reclaims —
        the two mechanisms together restore the invariant at every kill
        point."""
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        warmup = _client(inner, journal_path)
        warmup.put("keep.bin", deterministic_bytes(1800, seed=fault_seed))
        warmup.put("rewritten.bin",
                   deterministic_bytes(2600, seed=fault_seed + 1))
        warmup.put("rewritten.bin",
                   deterministic_bytes(2600, seed=fault_seed + 2))

        # prune + gc must run in one session: only the pruning client's
        # chunk table still knows the superseded version's chunks
        victim = _crash_world(inner, journal_path, kill_op)
        try:
            victim.sync()
            victim.prune_history("rewritten.bin", keep_versions=1)
            victim.collect_garbage()
        except SimulatedCrash:
            pass

        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        survivor.sync()
        assert report.incomplete_remaining == 0
        survivor.collect_garbage()
        survivor.scrub(delete_orphans=True)
        _assert_invariants(survivor, inner)
        keep = deterministic_bytes(1800, seed=fault_seed)
        assert survivor.get("keep.bin").data == keep
        assert survivor.get("rewritten.bin").data == \
            deterministic_bytes(2600, seed=fault_seed + 2)
        assert survivor.run_recovery().clean


class TestCrashDuringRecovery:
    def test_crash_mid_recovery_is_recoverable(self, tmp_path, fault_seed):
        """Recovery itself gets killed; running it again finishes the
        job — every repair action is idempotent by construction."""
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        victim = _crash_world(inner, journal_path, kill_op=4)
        try:
            victim.put("x.bin", deterministic_bytes(3100, seed=fault_seed))
        except SimulatedCrash:
            pass

        # first recovery attempt dies too (crash armed over the same
        # inner providers, fresh op window)
        doomed_recovery = _crash_world(inner, journal_path, kill_op=2)
        try:
            doomed_recovery.run_recovery()
        except SimulatedCrash:
            pass

        survivor = _client(inner, journal_path)
        report = survivor.run_recovery()
        assert report.incomplete_remaining == 0
        survivor.sync()
        _assert_invariants(survivor, inner)
        assert survivor.run_recovery().clean


class TestPowerLossLedger:
    def test_degraded_put_debt_survives_power_loss(self, tmp_path,
                                                   fault_seed, log_os):
        """A ``debt`` is a barrier of the one log: a power loss after a
        degraded put keeps it, drops the unsynced ``commit``, and the
        replay acknowledges the put with its debts still open."""
        clock = SimClock()
        inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
        plan = FaultPlan([FaultSpec(kind=FaultKind.OUTAGE, csp_ids=("csp2",),
                                    ops=("upload",))], seed=fault_seed)
        wrapped = [FaultyProvider(p, plan, clock=clock) for p in inner]
        journal_path = tmp_path / "journal.jsonl"
        victim = _client(wrapped, journal_path, clock=clock, fsync=True,
                         debts=True)
        report = victim.put("wounded.bin",
                            deterministic_bytes(2600, seed=fault_seed))
        assert report.degraded_chunks
        log_os.power_loss(journal_path)

        survivor = _client(inner, journal_path, debts=True)
        # ``commit`` is no barrier: the put replays, and its node in the
        # synced tree makes the replay an acknowledgement
        recovery = survivor.run_recovery()
        assert recovery.rolled_forward == 1
        assert recovery.rolled_back == 0 and recovery.shares_deleted == 0
        for chunk_id in report.degraded_chunks:
            entry = survivor.debt_ledger.debt_for(chunk_id)
            assert entry is not None and "csp2" in entry.failed_csps
        assert survivor.get("wounded.bin").data == \
            deterministic_bytes(2600, seed=fault_seed)

    @pytest.mark.parametrize("where, kill, durability", DEGRADED_SWEEP)
    def test_degraded_put_kill_points(self, tmp_path, where, kill,
                                      durability, fault_seed, log_os):
        """A put degraded by a csp2 upload outage, killed before each
        provider op and each log append, on one log.  Recovery restores
        the invariants; every debt on disk at the crash is still open
        after it (recovery retires none); every chunk short of n live
        shares is owed; and once the outage is over, repair drains every
        debt."""
        power = durability == "power"
        journal_path = tmp_path / "journal.jsonl"
        inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
        warmup = _client(inner, journal_path, fsync=power, debts=True)
        stable = deterministic_bytes(2500, seed=fault_seed)
        warmup.put("stable.bin", stable)

        clock = SimClock()
        specs = [FaultSpec(kind=FaultKind.OUTAGE, csp_ids=("csp2",),
                           ops=("upload",))]
        if where == "op":
            specs.insert(0, FaultSpec(kind=FaultKind.CRASH,
                                      window_ops=(kill, None), max_hits=1))
        plan = FaultPlan(specs, seed=fault_seed)
        victim = _client([FaultyProvider(p, plan, clock=clock)
                          for p in inner], journal_path, clock=clock,
                         fsync=power, debts=True)
        if where == "append":
            _die_before_append(victim.journal, kill)
        attempted = deterministic_bytes(3100, seed=fault_seed + 1)
        crashed = False
        try:
            assert victim.put("victim.bin", attempted).degraded_chunks
        except SimulatedCrash:
            crashed = True
        if power:
            log_os.power_loss(journal_path)
        owed = IntentJournal(journal_path).open_debts()

        survivor = _client(inner, journal_path, debts=True)
        report = survivor.run_recovery()
        survivor.sync()
        assert report.incomplete_remaining == 0
        truth = _assert_invariants(survivor, inner)
        ledger = survivor.debt_ledger
        for entry in owed:
            assert ledger.debt_for(entry.chunk_id, entry.kind) is not None
        stored = set().union(*truth.values())
        for chunk_id in survivor.chunk_table.all_chunk_ids():
            shares = {chunk_share_object_name(index, chunk_id)
                      for index in range(CONFIG["n"])}
            if len(shares & stored) < CONFIG["n"]:
                assert ledger.debt_for(chunk_id) is not None, chunk_id

        assert survivor.get("stable.bin").data == stable
        visible = {e.name for e in survivor.list_files(sync_first=False)}
        if "victim.bin" in visible:
            assert survivor.get("victim.bin").data == attempted
        else:
            assert crashed
        survivor.repair_debts()
        assert len(ledger) == 0
        assert survivor.run_recovery().clean


class TestRollbackNeedsFullView:
    def test_unanswered_slot_holds_the_rollback(self, tmp_path, fault_seed,
                                                log_os):
        """A node at exactly t slots, one of them dark at recovery, looks
        unpublished from the slots that answer: recovery must wait for
        every slot, then acknowledge — never roll the file back."""
        clock = SimClock()
        inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
        short = FaultPlan([FaultSpec(
            kind=FaultKind.OUTAGE, csp_ids=("csp2", "csp3"),
            ops=("upload",), name_prefix=METADATA_PREFIX,
        )], seed=fault_seed)
        journal_path = tmp_path / "journal.jsonl"
        victim = _client([FaultyProvider(p, short, clock=clock)
                          for p in inner], journal_path, clock=clock,
                         fsync=True)
        data = deterministic_bytes(3100, seed=fault_seed)
        node_id = victim.put("edge.bin", data).node.node_id
        holders = [p.csp_id for p in inner
                   if p.list(prefix=f"{METADATA_PREFIX}{node_id}-")]
        assert holders == ["csp0", "csp1"]  # exactly t copies
        log_os.power_loss(journal_path)  # the commit was never synced
        before = _ground_truth(inner)

        clock = SimClock()
        dark = FaultPlan([FaultSpec(kind=FaultKind.OUTAGE,
                                    csp_ids=("csp0",),
                                    window_time=(0.0, 50.0))],
                         seed=fault_seed)
        survivor = _client([FaultyProvider(p, dark, clock=clock)
                            for p in inner], journal_path, clock=clock)
        report = survivor.run_recovery()
        assert report.incomplete_remaining == 1
        assert report.rolled_back == 0 and report.shares_deleted == 0
        assert _ground_truth(inner) == before
        assert holders == [p.csp_id for p in inner
                           if p.list(prefix=f"{METADATA_PREFIX}{node_id}-")]

        clock.advance(100)  # the outage is over
        report = survivor.run_recovery()
        assert report.rolled_forward == 1 and report.incomplete_remaining == 0
        assert survivor.get("edge.bin").data == data
        assert survivor.run_recovery().clean
