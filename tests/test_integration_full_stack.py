"""Full-stack integration: Table 2 catalog + clusters + epsilon planning.

Builds the system the paper actually describes end to end: twenty
providers from Table 2, platform clusters inferred from synthetic
routes, an epsilon-driven share count, and the complete data path over
them — plus cross-client races on identical content.
"""

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp import InMemoryCSP
from repro.csp.catalog import TABLE2
from repro.topology import cluster_csps, synthesize_routes
from tests.conftest import SMALL_CHUNKS, deterministic_bytes

AMAZON = {s.name for s in TABLE2 if s.amazon_platform}


@pytest.fixture
def full_catalog_cloud():
    providers = [InMemoryCSP(spec.name) for spec in TABLE2]
    platforms = {name: "amazon" for name in AMAZON}
    routes = synthesize_routes([s.name for s in TABLE2], platforms, seed=2)
    clusters = cluster_csps(routes)
    config = CyrusConfig(
        key="catalog-key", t=2,
        n=None, epsilon=1e-8, csp_failure_prob=2e-3,
        **SMALL_CHUNKS,
    )
    client = CyrusClient.create(
        providers, config, client_id="full-stack", clusters=clusters,
    )
    return client, providers, config


class TestTwentyProviderCloud:
    def test_epsilon_plans_n(self, full_catalog_cloud):
        client, _, config = full_catalog_cloud
        n = config.plan_n(client.cloud.cluster_count())
        assert n >= config.t
        from repro.reliability import chunk_failure_probability

        assert chunk_failure_probability(2, n, 2e-3) <= 1e-8

    def test_roundtrip_with_cluster_constraint(self, full_catalog_cloud):
        client, _, _ = full_catalog_cloud
        data = deterministic_bytes(15_000, 1)
        report = client.put("audit.bin", data)
        assert client.get("audit.bin").data == data
        # no chunk stores two shares inside the Amazon cluster
        for record in report.node.chunks:
            holders = {
                s.csp_id for s in report.node.shares_of(record.chunk_id)
            }
            assert len(holders & AMAZON) <= 1, holders

    def test_amazon_outage_harmless(self, full_catalog_cloud):
        # the whole Amazon platform fails at once (the correlated
        # failure Section 4.1 defends against): data must survive
        client, _, _ = full_catalog_cloud
        data = deterministic_bytes(12_000, 2)
        client.put("resilient.bin", data)
        for name in AMAZON:
            client.health.trip(name)
        assert client.get("resilient.bin").data == data

    def test_storage_spreads_widely(self, full_catalog_cloud):
        client, providers, _ = full_catalog_cloud
        for i in range(15):
            client.put(f"f{i}.bin", deterministic_bytes(4_000, 10 + i))
        used = sum(1 for p in providers if p.object_count > 0)
        assert used >= 15  # consistent hashing reaches most of 20 CSPs


class TestConcurrentIdenticalContent:
    def test_same_chunk_race_is_harmless(self, csps, config):
        # two unsynced clients upload the SAME content concurrently:
        # identical chunk ids, identical keyed shares, identical share
        # names -> writes collide byte-for-byte and nothing corrupts
        a = CyrusClient.create(csps, config, client_id="a")
        b = CyrusClient.create(csps, config, client_id="b")
        payload = deterministic_bytes(9_000, 50)
        a.uploader.upload("mine.bin", payload, client_id="a")
        b.uploader.upload("theirs.bin", payload, client_id="b")
        a.sync()
        b.sync()
        assert a.get("theirs.bin", sync_first=False).data == payload
        assert b.get("mine.bin", sync_first=False).data == payload
        # chunk-level dedup across the race: both clients derived the
        # same share names, so each chunk is stored exactly n times
        node = a.tree.latest("mine.bin")
        unique_chunks = {c.chunk_id for c in node.chunks}
        share_objects = [
            info
            for csp in csps
            for info in csp.list()
            if not info.name.startswith("md-")
        ]
        assert len(share_objects) == len(unique_chunks) * config.n

    def test_same_name_same_content_race_dedups_to_one_node(
        self, csps, config
    ):
        a = CyrusClient.create(csps, config, client_id="same-device")
        b = CyrusClient.create(csps, config, client_id="same-device")
        payload = deterministic_bytes(3_000, 60)
        a.uploader.upload("doc.bin", payload, client_id="same-device")
        b.uploader.upload("doc.bin", payload, client_id="same-device")
        a.sync()
        # identical (file, parent, name, client) -> identical node id:
        # the race collapses to one version, not a conflict
        assert len(a.tree.heads("doc.bin")) == 1
        assert not a.conflicts()


class TestTombstonePruneGC:
    def test_delete_prune_gc_reclaims_everything(self, csps, config):
        client = CyrusClient.create(csps, config, client_id="gc")
        data = deterministic_bytes(10_000, 70)
        client.put("ephemeral.bin", data)
        client.delete("ephemeral.bin")
        client.prune_history("ephemeral.bin", keep_versions=1)
        # only the tombstone remains; its chunks reference the old data
        # (tombstones carry the ChunkMap) so GC keeps them...
        report = client.collect_garbage()
        tomb = client.tree.latest("ephemeral.bin")
        if tomb.chunks:
            assert report.chunks_deleted == 0
        # ...until the tombstone itself is pruned away entirely
        for node in list(client.tree):
            client.tree.remove(node.node_id)
        # at which point nothing references the chunks
        table = client.chunk_table
        assert table.all_chunk_ids()
        assert table.unreferenced() == table.all_chunk_ids()
