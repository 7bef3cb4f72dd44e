"""Integration tests: several clients sharing one CYRUS cloud.

These exercise the paper's headline scenario (Figure 1): multiple
autonomous devices — possibly different users — reading and writing the
same files through nothing but their shared CSP accounts and key.
"""

import pytest

from repro.core.client import CyrusClient
from tests.conftest import deterministic_bytes


class TestThreeClients:
    @pytest.fixture
    def clients(self, csps, config):
        return [
            CyrusClient.create(csps, config, client_id=f"device-{i}")
            for i in range(3)
        ]

    def test_fanout(self, clients):
        data = deterministic_bytes(10_000, 1)
        clients[0].put("shared.bin", data)
        for client in clients[1:]:
            assert client.get("shared.bin").data == data

    def test_serial_edits_converge(self, clients):
        content = deterministic_bytes(5000, 2)
        clients[0].put("doc.bin", content)
        for round_no, client in enumerate(clients * 2):
            content = content + deterministic_bytes(100, 10 + round_no)
            client.put("doc.bin", content)
        for client in clients:
            assert client.get("doc.bin").data == content
        # the lineage is one unbroken chain: no spurious conflicts
        for client in clients:
            assert not client.conflicts()

    def test_three_way_conflict(self, clients):
        clients[0].put("f.txt", b"base " * 100)
        for c in clients:
            c.sync()
        for i, c in enumerate(clients):
            c.uploader.upload(
                "f.txt", f"version {i} ".encode() * 80,
                client_id=c.client_id,
            )
        clients[0].sync()
        divergences = [
            c for c in clients[0].conflicts() if c.kind == "divergence"
        ]
        assert len(divergences) == 1
        assert len(divergences[0].node_ids) == 3

    def test_resolution_converges_across_clients(self, clients):
        clients[0].put("f.txt", b"base " * 100)
        for c in clients:
            c.sync()
        clients[0].uploader.upload("f.txt", b"zero " * 90, client_id="device-0")
        clients[1].uploader.upload("f.txt", b"one " * 90, client_id="device-1")
        clients[2].sync()
        clients[2].resolve_conflicts()
        names = set()
        for c in clients:
            c.sync()
            names.update(e.name for e in c.list_files(sync_first=False))
            assert not c.conflicts()
        assert "f.txt" in names
        assert any("conflicted copy" in n for n in names)

    def test_cross_client_dedup(self, clients, csps):
        data = deterministic_bytes(20_000, 3)
        clients[0].put("a.bin", data)
        clients[1].sync()
        report = clients[1].put("b.bin", data)
        assert report.new_chunks == 0

    def test_delete_propagates(self, clients):
        clients[0].put("f.bin", deterministic_bytes(1000, 4))
        clients[1].sync()
        clients[1].delete("f.bin")
        assert "f.bin" not in [
            e.name for e in clients[2].list_files()
        ]

    def test_version_history_shared(self, clients):
        for i in range(3):
            clients[i].put("f.bin", deterministic_bytes(1000 + i, 20 + i))
        clients[0].sync()
        assert len(clients[0].history("f.bin")) == 3
        assert clients[0].get("f.bin", version=2).data == (
            deterministic_bytes(1000, 20)
        )


class TestPrivacyInvariants:
    def test_no_single_csp_holds_a_chunk(self, client, csps, config):
        # t=2: every chunk needs two CSPs; verify storage layout agrees
        data = deterministic_bytes(12_000, 5)
        node = client.put("f.bin", data).node
        for record in node.chunks:
            holders = {s.csp_id for s in node.shares_of(record.chunk_id)}
            assert len(holders) >= config.t

    def test_csp_bytes_are_not_plaintext(self, client, csps):
        data = deterministic_bytes(8_000, 6)
        client.put("f.bin", data)
        for provider in csps:
            for info in provider.list():
                blob = provider.download(info.name)
                assert data not in blob
                assert blob not in data if blob else True

    def test_share_names_reveal_nothing(self, client, csps):
        client.put("secret-report.docx", deterministic_bytes(4000, 7))
        for provider in csps:
            for info in provider.list():
                assert "secret" not in info.name
                assert "docx" not in info.name

    def test_wrong_key_cannot_read_chunks(self, client, csps, config):
        data = deterministic_bytes(6_000, 8)
        client.put("f.bin", data)
        attacker = CyrusClient.create(
            csps, config.with_params(key="stolen-guess"), client_id="eve"
        )
        from repro.errors import CyrusError

        with pytest.raises(CyrusError):
            attacker.recover()
            attacker.get("f.bin", sync_first=False)


class TestReliabilityInvariants:
    def test_survives_any_single_csp_loss(self, client, csps, config):
        data = deterministic_bytes(15_000, 9)
        client.put("f.bin", data)
        for victim in csps:
            fresh = CyrusClient.create(csps, config, client_id="probe")
            fresh.health.trip(victim.csp_id)
            fresh.recover()
            assert fresh.get("f.bin", sync_first=False).data == data

    def test_survives_n_minus_t_losses(self, client, csps, config):
        # (t, n) = (2, 3): any one of each chunk's three holders may die;
        # with four CSPs, killing one whole provider is always safe, and
        # killing two may or may not strand a chunk (not guaranteed)
        data = deterministic_bytes(15_000, 10)
        client.put("f.bin", data)
        client.health.trip(csps[3].csp_id)
        assert client.get("f.bin").data == data
