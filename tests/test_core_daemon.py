"""Unit tests for the background sync daemon."""

import pytest

from repro.core.daemon import SyncDaemon
from repro.core.config import CyrusConfig
from tests.conftest import SMALL_CHUNKS, deterministic_bytes


class TestTicks:
    def test_tick_pulls_remote_changes(self, client, second_client):
        daemon = SyncDaemon(second_client)
        client.put("f.bin", deterministic_bytes(2000, 1))
        entry = daemon.tick(now=0.0)
        assert entry.new_nodes == 1
        assert second_client.get("f.bin", sync_first=False).data == (
            deterministic_bytes(2000, 1)
        )

    def test_scheduling(self, client):
        daemon = SyncDaemon(client, interval_s=10.0)
        assert daemon.due(0.0)
        daemon.tick(now=0.0)
        assert not daemon.due(5.0)
        assert daemon.due(10.0)

    def test_conflicts_reported(self, client, second_client):
        client.put("doc.txt", b"base " * 50)
        second_client.sync()
        client.uploader.upload("doc.txt", b"AA " * 60, client_id="alice")
        second_client.uploader.upload("doc.txt", b"BB " * 60,
                                      client_id="bob")
        daemon = SyncDaemon(client)
        entry = daemon.tick(now=1.0)
        assert entry.conflicts_seen == 1
        assert entry.conflicts_resolved == 0

    def test_auto_resolve(self, client, second_client):
        client.put("doc.txt", b"base " * 50)
        second_client.sync()
        client.uploader.upload("doc.txt", b"AA " * 60, client_id="alice")
        second_client.uploader.upload("doc.txt", b"BB " * 60,
                                      client_id="bob")
        daemon = SyncDaemon(client, auto_resolve=True)
        entry = daemon.tick(now=1.0)
        assert entry.conflicts_resolved == 1
        assert not client.conflicts()

    def test_probe_recovery_in_tick(self, client):
        client.health.trip("csp1")
        daemon = SyncDaemon(client)
        entry = daemon.tick(now=0.0)
        assert entry.csps_recovered == ("csp1",)


class TestRunUntil:
    def make_sim_client(self):
        from repro.bench import build_paper_testbed

        env = build_paper_testbed()
        config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        return env, env.new_client(config, client_id="daemon")

    def test_ticks_on_schedule(self):
        env, client = self.make_sim_client()
        daemon = SyncDaemon(client, interval_s=60.0)
        ticks = daemon.run_until(300.0)
        assert len(ticks) == 6  # t = 0, 60, ..., 300
        assert [t.at for t in ticks] == [0.0, 60.0, 120.0, 180.0, 240.0,
                                         300.0]

    def test_two_daemons_converge(self):
        env, writer = self.make_sim_client()
        config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        reader = env.new_client(config, client_id="reader")
        daemon = SyncDaemon(reader, interval_s=30.0)
        writer.put("shared.bin", deterministic_bytes(3000, 5),
                   sync_first=False)
        daemon.run_until(60.0)
        assert reader.get("shared.bin", sync_first=False).data == (
            deterministic_bytes(3000, 5)
        )

    def test_wall_clock_rejected(self, client):
        daemon = SyncDaemon(client)
        with pytest.raises(TypeError):
            daemon.run_until(10.0)
