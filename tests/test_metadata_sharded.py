"""Metadata groups: routing stability, reachability, outages, upkeep.

A :class:`MetadataStore` given several metadata CSP *groups* (the
fleet's layout) consistent-hashes each file's version tree onto one of
them.  These tests pin:

* **stable assignment** — group routing is a pure function of
  (route key, group ids), identical across store instances and runs;
* **reachability** — files land on every group and a sync lists and
  reads them all;
* **fault isolation** — an OUTAGE of one whole metadata group (via
  :class:`FaultPlan` ``restricted_to`` that group's providers) degrades
  exactly the files routed to it; everything else stays readable;
* **upkeep** — a prune deletes, and a debt repair of a node the tree
  lacks refills, exactly the slots of the node's own group.
"""

from __future__ import annotations

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp.memory import InMemoryCSP
from repro.errors import CyrusError, MetadataError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.metadata.codec import METADATA_PREFIX, metadata_share_name
from repro.metadata.store import MetadataStore
from repro.redundancy import DebtLedger
from tests.test_reconcile import OpSpy

SMALL_CHUNKS = dict(chunk_min=128, chunk_avg=512, chunk_max=4096)


def make_csps() -> list[InMemoryCSP]:
    return [InMemoryCSP(f"csp{i}") for i in range(6)]


def group(csps, index: int) -> list:
    """Three providers per metadata group: [0:3] and [3:6]."""
    return csps[index * 3:(index + 1) * 3]


def grouped_factory(csps):
    def factory(client: CyrusClient) -> MetadataStore:
        return MetadataStore(
            [group(csps, 0), group(csps, 1)],
            key=client.config.key, t=client.config.meta_t,
            health=client.health, metrics=client.obs.metrics,
            ledger=client.debt_ledger, clock=client.engine.clock,
        )
    return factory


def make_client(csps, client_id="alice", key="shard-key",
                debt_ledger=None) -> CyrusClient:
    config = CyrusConfig(key=key, t=2, n=3, meta_t=2, **SMALL_CHUNKS)
    return CyrusClient.create(csps, config, client_id=client_id,
                              store_factory=grouped_factory(csps),
                              debt_ledger=debt_ledger)


def names_per_shard(store: MetadataStore, want: int = 2) -> dict:
    """First ``want`` file names routed to each group."""
    found: dict[int, list[str]] = {0: [], 1: []}
    i = 0
    while any(len(v) < want for v in found.values()):
        name = f"file{i:03d}.dat"
        shard = store.shard_for(name)
        if len(found[shard]) < want:
            found[shard].append(name)
        i += 1
    return found


class TestRouting:
    def test_assignment_is_stable_across_instances(self):
        csps_a, csps_b = make_csps(), make_csps()
        store_a = MetadataStore(
            [group(csps_a, 0), group(csps_a, 1)], key="k")
        store_b = MetadataStore(
            [group(csps_b, 0), group(csps_b, 1)], key="k")
        names = [f"file{i:03d}.dat" for i in range(64)]
        assert ([store_a.shard_for(n) for n in names]
                == [store_b.shard_for(n) for n in names])

    def test_both_groups_get_traffic(self):
        csps = make_csps()
        store = MetadataStore([group(csps, 0), group(csps, 1)], key="k")
        shards = {store.shard_for(f"file{i:03d}.dat") for i in range(64)}
        assert shards == {0, 1}

    def test_route_prefix_gives_tenants_independent_spread(self):
        csps = make_csps()
        groups = [group(csps, 0), group(csps, 1)]
        a = MetadataStore(groups, key="k", route_prefix="t000/")
        b = MetadataStore(groups, key="k", route_prefix="t001/")
        names = [f"file{i:03d}.dat" for i in range(64)]
        assert ([a.shard_for(n) for n in names]
                != [b.shard_for(n) for n in names])

    def test_rejects_unequal_groups(self):
        csps = make_csps()
        with pytest.raises(MetadataError):
            MetadataStore([csps[:3], csps[3:5]], key="k")

    def test_rejects_duplicate_groups(self):
        csps = make_csps()
        with pytest.raises(MetadataError):
            MetadataStore([csps[:3], csps[:3]], key="k")


    def test_slots_of_a_node_known_only_by_id(self):
        csps = make_csps()
        store = MetadataStore([group(csps, 0), group(csps, 1)], key="k")
        node_id = "a" * 40
        listing = {c.csp_id: set() for c in csps}
        assert store.slots_of(node_id, listing) == []  # listed nowhere
        listing["csp4"].add(metadata_share_name(node_id, 1))
        assert store.slots_of(node_id, listing) == group(csps, 1)
        del listing["csp4"], listing["csp0"]  # both groups have a dark slot
        assert store.slots_of(node_id, listing) == group(csps, 0)

class TestReachability:
    def test_files_on_every_shard_are_listed_and_fetched(self):
        csps = make_csps()
        writer = make_client(csps)
        by_shard = names_per_shard(writer.store)
        payloads = {}
        for shard, names in by_shard.items():
            for name in names:
                payloads[name] = f"shard {shard}: {name}".encode()
                writer.put(name, payloads[name], sync_first=False)

        # a fresh client (same key) syncs and reads every group
        reader = make_client(csps, client_id="bob")
        reader.sync()
        assert ({e.name for e in reader.list_files(sync_first=False)}
                == set(payloads))
        for name, payload in payloads.items():
            assert reader.get(name, sync_first=False).data == payload

    def test_metadata_shares_live_only_in_the_routed_group(self):
        csps = make_csps()
        writer = make_client(csps)
        by_shard = names_per_shard(writer.store, want=1)
        for names in by_shard.values():
            writer.put(names[0], b"x" * 600, sync_first=False)
        for shard, names in by_shard.items():
            node = writer.tree.latest(names[0])
            in_group = [
                csp.csp_id for csp in csps
                if any(node.node_id in info.name for info in csp.list())
            ]
            assert in_group == [c.csp_id for c in group(csps, shard)]


class TestGroupOutage:
    def test_one_dead_group_degrades_only_its_files(self):
        csps = make_csps()
        writer = make_client(csps)
        by_shard = names_per_shard(writer.store)
        for shard, names in by_shard.items():
            for name in names:
                writer.put(name, f"shard {shard}".encode(),
                           sync_first=False)

        # group 1's three providers go dark for every operation
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.OUTAGE)], seed=3,
        ).restricted_to([c.csp_id for c in group(csps, 1)])
        faulted = [FaultyProvider(c, plan) for c in csps]
        reader = CyrusClient.create(
            faulted,
            CyrusConfig(key="shard-key", t=2, n=3, meta_t=2,
                        **SMALL_CHUNKS),
            client_id="carol", store_factory=grouped_factory(faulted),
        )
        reader.sync()
        # files routed to the live group are fully readable ...
        visible = {e.name for e in reader.list_files(sync_first=False)}
        assert set(by_shard[0]) <= visible
        for name in by_shard[0]:
            assert reader.get(name, sync_first=False).data == b"shard 0"
        # ... while the dead group's files are exactly the ones missing
        assert visible.isdisjoint(by_shard[1])
        for name in by_shard[1]:
            with pytest.raises(CyrusError):
                reader.get(name, sync_first=False)

    def test_every_group_dead_is_a_hard_metadata_error(self):
        csps = make_csps()
        writer = make_client(csps)
        writer.put("doomed.dat", b"payload", sync_first=False)
        plan = FaultPlan([FaultSpec(kind=FaultKind.OUTAGE)], seed=3)
        faulted = [FaultyProvider(c, plan) for c in csps]
        reader = make_client(faulted, client_id="carol")
        with pytest.raises(MetadataError):
            reader.sync()


def md_objects(csps, node_id: str) -> list[tuple[str, str]]:
    """(csp, object) of every metadata share of ``node_id``, anywhere."""
    return [(c.csp_id, info.name) for c in csps
            for info in c.list(prefix=METADATA_PREFIX + node_id)]


class TestUpkeep:
    def test_prune_deletes_every_share_in_the_files_group(self):
        csps = make_csps()
        writer = make_client(csps)
        names = [ns[0] for ns in names_per_shard(writer.store, want=1).values()]
        for name in names:
            for v in range(3):
                writer.put(name, f"{name} v{v}".encode(), sync_first=False)
        doomed = {name: [n.node_id for n in writer.history(name)[1:]]
                  for name in names}
        assert all(len(ids) == 2 for ids in doomed.values())
        for name in names:
            report = writer.prune_history(name, keep_versions=1)
            assert report.nodes_deleted == 2
        for ids in doomed.values():
            for node_id in ids:
                assert md_objects(csps, node_id) == []
        reader = make_client(csps, client_id="bob")
        reader.sync()
        for name in names:
            assert len(reader.history(name)) == 1
            assert reader.get(name, sync_first=False).data == \
                f"{name} v2".encode()

    def test_repairing_a_node_the_tree_lacks_refills_its_groups_hole(
            self, tmp_path):
        """A ``meta`` debt for a node this client never synced heals
        from the node's own group: t GETs of listed slots, one PUT."""
        csps = make_csps()
        writer = make_client(csps)
        by_shard = names_per_shard(writer.store, want=1)
        nodes = {shard: writer.put(names[0], b"x" * 600,
                                   sync_first=False).node
                 for shard, names in by_shard.items()}
        repairer = make_client(csps, client_id="bob", debt_ledger=DebtLedger(
            tmp_path / "debts.jsonl", fsync=False))
        spy = OpSpy(repairer.engine)
        for shard, node in nodes.items():
            hole = group(csps, shard)[2]
            hole.delete(metadata_share_name(node.node_id, 2))
            repairer.debt_ledger.record(node.node_id, missing=(2,),
                                        kind="meta")
            spy.ops.clear()
            spy.active = True
            report = repairer.repair_debts(sync_first=False)
            spy.active = False
            assert report.debts_retired == 1
            assert (spy.ops["GET_META"], spy.ops["PUT_META"]) == (2, 1)
            assert sorted(md_objects(csps, node.node_id)) == [
                (c.csp_id, metadata_share_name(node.node_id, i))
                for i, c in enumerate(group(csps, shard))]
