"""The one reconcile path: what each caller pays to heal the same damage.

Scrub, debt repair and lazy migration all heal a chunk through
:func:`repro.redundancy.reconcile.reconcile_chunk`, and the metadata
back-fill of ``add_csp`` heals slots through ``reconcile_node``.  The
counts are exact and pinned in ``tests/data/op_budget.json``
``reconcile``: one share stranded on a failed CSP (with a debt naming
it) costs every caller the same uploads, and only the shares it must
read to regenerate — t for repair, none for a read that holds the
plaintext, every present share for the scrub, which verifies them.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.downloader import Downloader
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import DirectEngine, OpKind
from repro.csp.memory import InMemoryCSP
from repro.errors import CSPUnavailableError
from repro.metadata.codec import METADATA_PREFIX, metadata_share_name
from repro.recovery import IntentJournal
from repro.redundancy import DebtLedger, run_repair
from repro.redundancy.reconcile import assess_chunk
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

BUDGET = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["reconcile"]


class CountingCSP(InMemoryCSP):
    """An in-memory CSP that counts its ``list`` calls."""

    def __init__(self, csp_id: str):
        super().__init__(csp_id)
        self.lists = 0

    def list(self, *, prefix: str = ""):
        self.lists += 1
        return super().list(prefix=prefix)


class MetaCountingCSP(InMemoryCSP):
    """An in-memory CSP that counts the metadata objects it serves and
    stores, whoever asks."""

    def __init__(self, csp_id: str):
        super().__init__(csp_id)
        self.md: Counter[str] = Counter()

    def download(self, name: str) -> bytes:
        self.md["GET_META"] += name.startswith(METADATA_PREFIX)
        return super().download(name)

    def upload(self, name: str, data) -> None:
        self.md["PUT_META"] += name.startswith(METADATA_PREFIX)
        return super().upload(name, data)


class OpSpy:
    """Counts, by kind, the engine ops dispatched while ``active``."""

    def __init__(self, engine):
        self.ops: Counter[str] = Counter()
        self.active = False
        inner = engine.execute

        def execute(ops, *args, **kwargs):
            if self.active:
                self.ops.update(op.kind.value for op in ops)
            return inner(ops, *args, **kwargs)

        engine.execute = execute


def _client(tmp_path, providers, t, n):
    clock = SimClock()
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    return CyrusClient.create(
        providers,
        CyrusConfig(key="reconcile-key", t=t, n=n, **SMALL_CHUNKS),
        client_id="alice", engine=engine,
        journal=IntentJournal(tmp_path / "journal.jsonl", clock=clock,
                              fsync=False),
        debt_ledger=DebtLedger(tmp_path / "debts.jsonl", fsync=False),
    )


def _stranded(tmp_path, how="failed"):
    """One chunk, one of its shares stranded and owed as a debt:
    ``failed`` trips its CSP's breaker as a give-up does and names it
    in the debt;
    ``breaker`` only opens the CSP's breaker (the debt names no
    suspect), which the one usable rule alone must catch.  Returns
    (client, chunk id, stranded CSP, spy)."""
    fixture = BUDGET["stranded"]
    providers = [InMemoryCSP(f"csp{i}") for i in range(fixture["csps"])]
    client = _client(tmp_path, providers, fixture["t"], fixture["n"])
    client.put("one.bin", deterministic_bytes(fixture["file_bytes"], seed=1))
    [chunk_id] = client.chunk_table.all_chunk_ids()
    index, csp_id = client.chunk_table.get(chunk_id).placements[0]
    if how == "failed":
        client.health.trip(csp_id)
    else:
        client.health.breaker(csp_id).trip()
    client.debt_ledger.record(chunk_id, missing=(index,), failed_csps=(
        (csp_id,) if how == "failed" else ()))
    return client, chunk_id, csp_id, OpSpy(client.engine)


def _repair(client, spy, monkeypatch):
    spy.active = True
    assert run_repair(client).debts_retired == 1


def _lazy_migration(client, spy, monkeypatch):
    migrate = Downloader._migrate

    def counted(self, states):
        spy.active = True
        try:
            return migrate(self, states)
        finally:
            spy.active = False

    monkeypatch.setattr(Downloader, "_migrate", counted)
    assert len(client.get("one.bin").migrations) == 1


def _scrub(client, spy, monkeypatch):
    spy.active = True
    assert client.scrub(scrub_metadata=False).shares_repaired == 1


CALLERS = {"repair": _repair, "lazy_migration": _lazy_migration,
           "scrub": _scrub}


@pytest.mark.parametrize("how", ["failed", "breaker"])
@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_stranded_share_costs_each_caller_its_pinned_transfers(
        tmp_path, monkeypatch, caller, how):
    """Also pins where a caller's old rule differed: the scrub counted
    a share on a breaker-open CSP (its fetch and in-place rewrite then
    failed at the breaker), and lazy migration counted any ACTIVE CSP."""
    client, chunk_id, stranded, spy = _stranded(tmp_path, how)
    CALLERS[caller](client, spy, monkeypatch)
    assert {"share_gets": spy.ops["GET"], "share_puts": spy.ops["PUT"]} \
        == BUDGET["stranded"][caller]
    assert assess_chunk(client, chunk_id).regenerate == []
    assert stranded not in {c for _i, c in assess_chunk(
        client, chunk_id).present}


def test_every_caller_uploads_the_same():
    puts = {BUDGET["stranded"][d]["share_puts"] for d in CALLERS}
    assert puts == {1}


def test_metadata_backfill_lists_each_slot_once(tmp_path):
    """``add_csp`` back-fills the new slot from one listing per slot,
    journaling each node's write as a ``meta-repair`` intent."""
    fixture = BUDGET["metadata_backfill"]
    providers = [InMemoryCSP(f"csp{i}") for i in range(fixture["slots"] - 1)]
    client = _client(tmp_path, providers, 2, 3)
    for i in range(fixture["nodes"]):
        client.put(f"f{i}.bin", deterministic_bytes(40, seed=i))
    assert len(client.tree.node_ids()) == fixture["nodes"]
    fresh = InMemoryCSP("csp-new")
    spy = OpSpy(client.engine)
    spy.active = True
    client.add_csp(fresh)
    assert spy.ops["LIST"] == fixture["list_calls"]
    assert spy.ops["PUT_META"] == fixture["put_meta"]
    assert fresh.object_count == fixture["nodes"]
    repairs = [i for i in client.journal.intents() if i.op == "meta-repair"]
    assert len(repairs) == fixture["nodes"]
    assert all(i.committed for i in repairs)


def test_failed_rehome_upload_leaves_the_csp_active(tmp_path, monkeypatch):
    """A lazy migration whose upload fails does not take the target CSP
    dark (the scrub and repair never did): the breaker counts the
    failure, and the share stays owed."""
    client, chunk_id, _stranded_csp, _spy = _stranded(tmp_path)
    [spare] = [c for c in client.cloud.active_csps()
               if c not in client.chunk_table.get(chunk_id).csps()]

    def refuse(name, data):
        raise CSPUnavailableError("down for writes", csp_id=spare)

    monkeypatch.setattr(client.cloud.provider(spare), "upload", refuse)
    assert client.get("one.bin").migrations == ()
    assert not client.health.dark(spare)
    assert assess_chunk(client, chunk_id).regenerate


def test_scrub_judges_metadata_slots_like_a_fetch(tmp_path):
    """A re-publish that died after two of three slots leaves the third
    stale.  The scrub settles the slots through the store's verified
    decode, as a fetch does: the stale slot is owed (a debt, counted
    missing) and nobody is blamed.  It used to compare each slot with
    the local tree's copy and blame both fresher slots as corrupt."""
    providers = [InMemoryCSP(f"csp{i}") for i in range(3)]
    client = _client(tmp_path, providers, 2, 3)
    node = client.put("doc.bin", deterministic_bytes(900, seed=3)).node
    newer = dataclasses.replace(node, modified=node.modified + 1.0)
    assert newer.node_id == node.node_id
    stamp = client.store.publish_stamp() + 1000
    for provider, name, blob, index in client.store.frames_for(newer, stamp):
        if index < 2:
            provider.upload(name, blob)
    report = client.scrub(repair=False)
    assert (report.meta_shares_corrupt, report.meta_shares_missing) == (0, 1)
    assert all(client.health.corruption_count(p.csp_id) == 0
               for p in providers)
    entry = client.debt_ledger.debt_for(node.node_id, kind="meta")
    assert entry is not None and entry.missing == (2,)


def test_meta_repair_lists_each_slot_once_per_pass(tmp_path):
    """Debt repair lists every metadata slot once per pass, however many
    ``meta`` debts it drains (it used to list each slot per debt)."""
    providers = [CountingCSP(f"csp{i}") for i in range(3)]
    client = _client(tmp_path, providers, 2, 3)
    nodes = [client.put(f"f{i}.bin", deterministic_bytes(300, seed=i)).node
             for i in range(4)]
    for node in nodes:
        providers[2].delete(metadata_share_name(node.node_id, 2))
        client.store._record_meta_debt(node.node_id, missing=(2,))
    for provider in providers:
        provider.lists = 0
    assert run_repair(client).debts_retired == len(nodes)
    assert sum(p.lists for p in providers) == len(providers)
    assert providers[2].object_count >= len(nodes)


def _unknown_node_debt(tmp_path, providers):
    """A writer's node with its slot-2 share deleted, owed as a ``meta``
    debt by a second device that never synced it.  Returns (repairer,
    node)."""
    writer = _client(tmp_path / "writer", providers, 2, 3)
    node = writer.put("theirs.bin", deterministic_bytes(300, seed=5)).node
    providers[2].delete(metadata_share_name(node.node_id, 2))
    repairer = _client(tmp_path / "repairer", providers, 2, 3)
    repairer.debt_ledger.record(node.node_id, missing=(2,), kind="meta")
    assert node.node_id not in repairer.tree.node_ids()
    return repairer, node


def test_unknown_node_repair_reads_through_the_engine(tmp_path):
    """A node the tree lacks is read from its listed slots through the
    engine (charged to the budget), then its hole is rewritten."""
    fixture = BUDGET["unknown_node"]
    providers = [MetaCountingCSP(f"csp{i}") for i in range(fixture["slots"])]
    repairer, node = _unknown_node_debt(tmp_path, providers)
    for provider in providers:
        provider.md.clear()
    spy = OpSpy(repairer.engine)
    spy.active = True
    report = repairer.repair_debts(sync_first=False)
    assert report.debts_retired == 1
    assert report.transfers_used == fixture["get_meta"] + fixture["put_meta"]
    assert {"get_meta": spy.ops["GET_META"], "put_meta": spy.ops["PUT_META"]} \
        == {k: fixture[k] for k in ("get_meta", "put_meta")}
    served = sum((p.md for p in providers), Counter())
    assert served == Counter(GET_META=fixture["get_meta"],
                             PUT_META=fixture["put_meta"])
    assert providers[2].list(prefix=metadata_share_name(node.node_id, 2))


def test_no_metadata_byte_bypasses_the_engine(tmp_path):
    """Every metadata share a provider serves or stores is an engine
    ``GET_META`` / ``PUT_META``: debt repair of an unknown node, put,
    get, sync, prune, scrub and the ``add_csp`` back-fill."""
    providers = [MetaCountingCSP(f"csp{i}") for i in range(3)]
    repairer, _node = _unknown_node_debt(tmp_path, providers)
    alice = _client(tmp_path / "alice", providers, 2, 3)
    for provider in providers:
        provider.md.clear()
    spies = [OpSpy(c.engine) for c in (repairer, alice)]
    for spy in spies:
        spy.active = True
    repairer.repair_debts(sync_first=False)  # before a sync: node unknown
    for v in range(3):
        alice.put("doc.bin", deterministic_bytes(700, seed=v))
    repairer.sync()
    assert repairer.get("doc.bin").data == deterministic_bytes(700, seed=2)
    alice.prune_history("doc.bin", keep_versions=1)
    repairer.scrub()
    fresh = MetaCountingCSP("csp3")
    repairer.add_csp(fresh)
    assert fresh.md["PUT_META"] > 0
    engine_ops = sum((spy.ops for spy in spies), Counter())
    served = sum((p.md for p in [*providers, fresh]), Counter())
    assert engine_ops["GET_META"] > 0 and engine_ops["PUT_META"] > 0
    assert served["GET_META"] == engine_ops["GET_META"]
    assert served["PUT_META"] == engine_ops["PUT_META"]


def test_no_listing_bypasses_the_engine(tmp_path):
    """Every ``list`` a provider serves is an engine ``LIST`` op on the
    same CSP, and each product path below lists at least once."""
    providers = [CountingCSP(f"csp{i}") for i in range(5)]
    fresh = CountingCSP("csp5")
    client = _client(tmp_path, providers, 2, 3)
    listed: Counter[str] = Counter()
    execute = client.engine.execute

    def spy(ops, *args, **kwargs):
        listed.update(op.csp_id for op in ops if op.kind is OpKind.LIST)
        return execute(ops, *args, **kwargs)

    client.engine.execute = spy
    data = deterministic_bytes(900, seed=8)

    def put_owing_a_debt():
        client.health.trip("csp4")
        client.put("two.bin", deterministic_bytes(700, seed=9))
        assert client.debt_ledger.open_debts()  # csp4's metadata slot

    def run_recovery():
        chunk_id = client.tree.latest("doc.bin").chunks[0].chunk_id
        index, csp_id = client.chunk_table.get(chunk_id).placements[0]
        client.journal.begin("migrate", chunk=chunk_id, moves=[
            [index, csp_id, chunk_share_object_name(index, chunk_id)]])
        assert client.run_recovery().rolled_forward == 1

    def import_object():
        providers[1].upload("plain.txt", b"stored outside")
        client.import_object("csp1", "plain.txt")

    steps = {
        "put": lambda: client.put("doc.bin", data),
        "get": lambda: client.get("doc.bin"),
        "sync": client.sync,
        "put owing a debt": put_owing_a_debt,
        "probe_failed_csps": client.probe_failed_csps,
        "repair_debts": client.repair_debts,
        "run_recovery": run_recovery,
        "scrub": client.scrub,
        "recover": client.recover,
        "add_csp": lambda: client.add_csp(fresh),
        "remove_csp": lambda: client.remove_csp("csp0"),
        "import_object": import_object,
    }
    for step, run in steps.items():
        before = sum(listed.values())
        run()
        assert sum(listed.values()) > before, step
    assert len(client.debt_ledger) == 0
    assert Counter({p.csp_id: p.lists for p in [*providers, fresh]}) == listed
