"""The sync's settled names: one set probe per listed entry it has seen.

:class:`SyncService` keeps the listed metadata object names whose node
its tree holds, so a settled entry costs one probe of a set of strings
and only a name not settled yet is sliced for its node id and probed
against the tree.  Two properties are pinned here:

* **parity** — every sync of a scripted two-device run (puts, a node
  listed at fewer than t slots until a debt repair fills them, a node
  whose shares do not decode, a prune undone by the other device's
  scrub and repair, ``recover()``, one and two metadata groups) returns
  the same new nodes and conflicts, fetches the same slots and leaves
  the same tree as a fresh service with nothing settled, run over a
  copy of the tree: the settled set never hides a name, and a
  ``tree.remove`` clears it;
* **count** — how many listed entries reach the slice-and-id probe,
  pinned in ``tests/data/op_budget.json`` ``sync_probe``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.sync import SyncService
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.metadata.codec import METADATA_PREFIX, metadata_share_name
from repro.metadata.store import MetadataStore
from repro.redundancy import DebtLedger
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

BUDGET = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["sync_probe"]

#: A's metadata uploads fail to the slots past the first t while its
#: clock is inside this window
OUTAGE = (1000.0, 2000.0)


def _fetched(report) -> list[tuple[str, str]]:
    return [(r.op.csp_id, r.op.name) for r in report.fetch_results]


def _nodes(tree) -> dict:
    return {node.node_id: node for node in tree}


@pytest.fixture
def parity(monkeypatch) -> list:
    """Runs every ``SyncService.sync`` beside a fresh service (nothing
    settled) over a copy of the tree, with no health, metrics or ledger
    to touch, and asserts the two agree.  Returns the checked reports."""
    checked = []
    original = SyncService.sync

    def sync(self):
        quiet = copy.copy(self.store)
        quiet.health = quiet.metrics = quiet.ledger = None
        reference = SyncService(quiet, copy.deepcopy(self.tree),
                                self.engine, self.cloud)
        expected = original(reference)
        report = original(self)
        assert report.new_nodes == expected.new_nodes
        assert _fetched(report) == _fetched(expected)
        assert report.conflicts == expected.conflicts
        assert _nodes(self.tree) == _nodes(reference.tree)
        checked.append(report)
        return report

    monkeypatch.setattr(SyncService, "sync", sync)
    return checked


KEY = "settled-key"


def _device(tmp_path, name, providers, groups, clock):
    def store(client):
        return MetadataStore(
            [providers[i::groups] for i in range(groups)],
            key=KEY, t=client.config.meta_t,
            health=client.health, metrics=client.obs.metrics,
            ledger=client.debt_ledger, clock=client.engine.clock,
        )

    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    return CyrusClient.create(
        providers, CyrusConfig(key=KEY, t=2, n=3, **SMALL_CHUNKS),
        client_id=name, engine=engine, store_factory=store,
        debt_ledger=DebtLedger(tmp_path / f"{name}.jsonl", fsync=False),
    )


def _names(device, node_id) -> set[str]:
    return {metadata_share_name(node_id, i) for i in range(device.store.m)}


@pytest.mark.parametrize("groups", [1, 2])
def test_settled_sync_matches_a_fresh_sync(tmp_path, parity, groups):
    csps = [InMemoryCSP(f"csp{i}") for i in range(4 * groups)]
    # the slots of w.txt past the first t (group routing is a pure
    # function of the CSP ids) take A's metadata outage
    w_slots = MetadataStore([csps[i::groups] for i in range(groups)],
                            key=KEY).slots_for("w.txt")
    outage = FaultPlan([FaultSpec(
        kind=FaultKind.OUTAGE, ops=("upload",), name_prefix=METADATA_PREFIX,
        csp_ids=tuple(p.csp_id for p in w_slots[2:]), window_time=OUTAGE,
    )])
    clock_a = SimClock()
    a = _device(tmp_path, "alice", [
        FaultyProvider(p, outage, clock=clock_a) for p in csps
    ], groups, clock_a)
    b = _device(tmp_path, "bob", csps, groups, SimClock())

    # puts on A, three versions of x; each put syncs first
    for version in range(3):
        a.put("x.txt", deterministic_bytes(700, seed=version))
    a.put("y.txt", deterministic_bytes(900, seed=10))
    assert b.sync().new_nodes == 4
    assert a.sync().new_nodes == 0
    assert b.sync().new_nodes == 0

    # a node listed at fewer than t slots: A's publish lands on exactly
    # t slots (the rest owed as a debt) and B cannot list one of them
    clock_a.advance_to(OUTAGE[0])
    w = a.put("w.txt", deterministic_bytes(500, seed=20)).node
    clock_a.advance_to(OUTAGE[1])
    assert len(a.debt_ledger.open_debts()) == 1
    b.health.trip(w_slots[0].csp_id)
    assert b.sync().new_nodes == 0
    assert not _names(b, w.node_id) & b.syncer._settled
    a.repair_debts()
    assert not a.debt_ledger.open_debts()
    assert b.sync().new_nodes == 1
    assert b.probe_failed_csps() == [w_slots[0].csp_id]
    assert b.sync().new_nodes == 0
    assert _names(b, w.node_id) <= b.syncer._settled

    # a node whose shares do not decode: all but one corrupt, retried
    u = a.put("u.txt", deterministic_bytes(600, seed=30)).node
    kept = {}
    for index, provider in enumerate(b.store.slots_for("u.txt")[:-1]):
        name = metadata_share_name(u.node_id, index)
        kept[provider, name] = provider.download(name)
        provider.upload(name, b"not a metadata share")
    failed = b.sync()
    assert failed.new_nodes == 0 and failed.fetch_results
    assert u.node_id not in b.tree
    assert not _names(b, u.node_id) & b.syncer._settled
    for (provider, name), blob in kept.items():
        provider.upload(name, blob)
    assert b.sync().new_nodes == 1 and u.node_id in b.tree

    # A prunes x; B, which has a debt ledger, scrubs and repairs the
    # pruned slots back; A must re-discover the two pruned nodes
    assert a.prune_history("x.txt", keep_versions=1).nodes_deleted == 2
    assert a.sync().new_nodes == 0
    b.scrub()
    b.repair_debts()
    assert a.sync().new_nodes == 2
    assert a.sync().new_nodes == 0

    # recover() starts from an empty tree and an empty settled set
    assert b.recover().new_nodes == len(b.tree) == 6
    assert b.sync().new_nodes == 0

    # B: x and y, w, u, the recovery; A: the two re-published nodes
    assert sum(report.new_nodes for report in parity) == 4 + 1 + 1 + 6 + 2
    assert len(parity) >= 20


class ProbeCounter:
    """Stands in for the tree's id view inside a sync: counts the
    membership probes (one per entry sliced for its node id)."""

    def __init__(self, tree):
        self.ids = tree.node_ids()
        self.probes = 0

    def __contains__(self, node_id: str) -> bool:
        self.probes += 1
        return node_id in self.ids


def _probes(device) -> int:
    """Entries one ``device.sync()`` slices and probes."""
    counter = ProbeCounter(device.tree)
    device.tree.node_ids = lambda: counter
    try:
        device.sync()
    finally:
        del device.tree.node_ids
    return counter.probes


def test_sync_probe_counts():
    csps = [InMemoryCSP(f"csp{i}") for i in range(BUDGET["csps"])]
    config = CyrusConfig(key="probe-key", t=BUDGET["t"], n=BUDGET["n"],
                         **SMALL_CHUNKS)
    a = CyrusClient.create(csps, config, client_id="alice")
    b = CyrusClient.create(csps, config, client_id="bob")
    assert b.store.m == BUDGET["slots"]
    for i in range(BUDGET["synced_nodes"]):
        a.put(f"f{i:02d}.bin", deterministic_bytes(300, seed=i),
              sync_first=False)
    assert b.sync().new_nodes == BUDGET["synced_nodes"]

    assert _probes(b) == BUDGET["nothing_new"]

    for i in range(2):
        a.put(f"g{i}.bin", deterministic_bytes(300, seed=100 + i),
              sync_first=False)
    assert [_probes(b), _probes(b)] == BUDGET["two_new"]

    b.put("own.bin", deterministic_bytes(300, seed=200), sync_first=False)
    assert [_probes(b), _probes(b)] == BUDGET["own_put"]

    b.tree.remove(b.tree.latest("f00.bin").node_id)
    listed = sum(len(p.list(prefix=METADATA_PREFIX)) for p in csps)
    assert [_probes(b), _probes(b)] == BUDGET["after_remove"]
    assert BUDGET["after_remove"][0] == listed
    assert len(b.tree) == BUDGET["synced_nodes"] + 3
