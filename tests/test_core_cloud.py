"""Unit tests for CyrusCloud: membership, clusters, placement, slots."""

import pytest

from repro.core.cloud import CSPStatus, CyrusCloud
from repro.csp import InMemoryCSP
from repro.errors import ConfigurationError, SelectionError


def _client(count):
    from repro.core.client import CyrusClient
    from repro.core.config import CyrusConfig

    from tests.conftest import SMALL_CHUNKS

    return CyrusClient.create(
        [InMemoryCSP(f"csp{i}") for i in range(count)],
        CyrusConfig(key="cloud", t=2, n=3, **SMALL_CHUNKS))


def make_cloud(count=5, clusters=None):
    providers = [InMemoryCSP(f"csp{i}") for i in range(count)]
    return CyrusCloud(providers, clusters=clusters), providers


class TestMembership:
    def test_initial_all_active(self):
        cloud, _ = make_cloud(3)
        assert cloud.active_csps() == ["csp0", "csp1", "csp2"]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CyrusCloud([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            CyrusCloud([InMemoryCSP("x"), InMemoryCSP("x")])

    def test_add(self):
        cloud, _ = make_cloud(2)
        cloud.add_csp(InMemoryCSP("new"))
        assert "new" in cloud.active_csps()
        assert "new" in cloud.metadata_slot_ids()

    def test_add_duplicate_rejected(self):
        cloud, _ = make_cloud(2)
        with pytest.raises(ConfigurationError):
            cloud.add_csp(InMemoryCSP("csp0"))

    def test_remove(self):
        cloud, _ = make_cloud(3)
        cloud.remove_csp("csp1")
        assert cloud.status_of("csp1") is CSPStatus.REMOVED
        assert "csp1" not in cloud.active_csps()
        assert not cloud.keeps("csp1")

    def test_fail_and_recover(self):
        """A give-up trips the breaker: the CSP is dark, not up, and
        still a member; a probe that finds it back closes the breaker."""
        client = _client(3)
        client.health.trip("csp0")
        assert client.health.dark("csp0")
        assert not client.health.up("csp0", client.cloud)
        assert client.cloud.status_of("csp0") is CSPStatus.ACTIVE
        assert client.probe_failed_csps() == ["csp0"]
        assert not client.health.dark("csp0")
        assert client.health.up("csp0", client.cloud)

    def test_recover_does_not_resurrect_removed(self):
        client = _client(3)
        client.remove_csp("csp0")
        client.health.trip("csp0")
        assert client.probe_failed_csps() == []
        assert client.cloud.status_of("csp0") is CSPStatus.REMOVED
        assert not client.health.up("csp0", client.cloud)

    def test_unknown_csp(self):
        cloud, _ = make_cloud(2)
        with pytest.raises(KeyError):
            cloud.status_of("ghost")
        with pytest.raises(KeyError):
            cloud.provider("ghost")


class TestPlacement:
    def test_distinct_csps(self):
        cloud, _ = make_cloud(5)
        chosen = cloud.place_chunk("a" * 40, 3)
        assert len(set(chosen)) == 3

    def test_deterministic(self):
        cloud, _ = make_cloud(5)
        assert cloud.place_chunk("b" * 40, 3) == cloud.place_chunk("b" * 40, 3)

    def test_skips_failed(self):
        """No share and no metadata slot goes to a CSP whose breaker a
        give-up tripped."""
        client = _client(4)
        client.health.trip("csp0")
        for i in range(3):
            node = client.put(f"k{i}", bytes([i]) * 3000).node
            assert "csp0" not in {s.csp_id for s in node.shares}
        assert client.cloud.provider("csp0").object_count == 0

    def test_too_few_active(self):
        cloud, _ = make_cloud(3)
        cloud.remove_csp("csp0")
        with pytest.raises(SelectionError):
            cloud.place_chunk("k", 3)

    def test_cluster_disjoint_placement(self):
        cloud, _ = make_cloud(5, clusters=[["csp0", "csp1", "csp2"]])
        for key in (f"key{i}" for i in range(20)):
            chosen = cloud.place_chunk(key, 3)
            in_cluster = [c for c in chosen if c in {"csp0", "csp1", "csp2"}]
            assert len(in_cluster) <= 1, chosen

    def test_cluster_overflow_degrades_gracefully(self):
        # only 2 clusters but n=3: fill from the same cluster rather
        # than refuse the upload
        cloud, _ = make_cloud(4, clusters=[["csp0", "csp1", "csp2"]])
        chosen = cloud.place_chunk("key", 3, respect_clusters=True)
        assert len(set(chosen)) == 3

    def test_clusters_ignorable(self):
        cloud, _ = make_cloud(4, clusters=[["csp0", "csp1", "csp2", "csp3"]])
        chosen = cloud.place_chunk("key", 3, respect_clusters=False)
        assert len(set(chosen)) == 3

    def test_cluster_count(self):
        cloud, _ = make_cloud(5, clusters=[["csp0", "csp1"]])
        assert cloud.cluster_count() == 4  # 1 pair + 3 singletons

    def test_replacement_csp(self):
        cloud, _ = make_cloud(4)
        holder = cloud.place_chunk("key", 3)
        replacement = cloud.replacement_csp("key", holder)
        assert replacement is not None
        assert replacement not in holder

    def test_replacement_none_when_all_hold(self):
        cloud, _ = make_cloud(3)
        assert cloud.replacement_csp("key", ["csp0", "csp1", "csp2"]) is None


class TestMetadataSlots:
    def test_slots_fixed_order(self):
        cloud, _ = make_cloud(3)
        assert cloud.metadata_slot_ids() == ["csp0", "csp1", "csp2"]

    def test_slots_append_only_on_add(self):
        cloud, _ = make_cloud(2)
        cloud.add_csp(InMemoryCSP("zzz"))
        assert cloud.metadata_slot_ids() == ["csp0", "csp1", "zzz"]

    def test_publish_skips_removed_and_failed_slots(self, tmp_path):
        """A publish writes no metadata share to a removed or a failed
        slot.  The failed slot is owed a ``meta`` debt, which drains
        once a probe finds it back; the removed one is owed nothing.
        Both keep their positions, and the node reads back."""
        from repro.core.client import CyrusClient
        from repro.core.config import CyrusConfig
        from repro.metadata.codec import metadata_share_name
        from repro.redundancy import DebtLedger

        from tests.conftest import SMALL_CHUNKS, deterministic_bytes

        providers = [InMemoryCSP(f"csp{i}") for i in range(5)]
        config = CyrusConfig(key="slots", t=2, n=3, **SMALL_CHUNKS)
        client = CyrusClient.create(
            providers, config, client_id="a",
            debt_ledger=DebtLedger(tmp_path / "debts.jsonl", fsync=False))
        client.remove_csp("csp1")
        client.health.trip("csp2")
        data = deterministic_bytes(900, seed=5)
        node = client.put("doc.bin", data).node
        assert client.cloud.metadata_slot_ids() == [
            "csp0", "csp1", "csp2", "csp3", "csp4"]

        def holds(index):
            name = metadata_share_name(node.node_id, index)
            return [i.name for i in providers[index].list(prefix=name)]

        assert holds(1) == holds(2) == []
        [debt] = client.debt_ledger.open_debts()
        assert (debt.kind, debt.chunk_id, debt.missing, debt.failed_csps) \
            == ("meta", node.node_id, (2,), ("csp2",))
        assert client.get("doc.bin").data == data
        fresh = CyrusClient.create(providers, config, client_id="b")
        assert fresh.get("doc.bin").data == data
        assert client.probe_failed_csps() == ["csp2"]
        assert client.repair_debts().debts_retired == 1
        assert holds(2) and holds(1) == []
        assert len(client.debt_ledger) == 0
