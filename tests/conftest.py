"""Shared fixtures for the test suite.

The small chunk sizes here keep tests fast while still producing
multi-chunk files; they do not change any algorithmic behaviour.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp.memory import InMemoryCSP
from repro.util import appendlog


SMALL_CHUNKS = dict(chunk_min=128, chunk_avg=512, chunk_max=4096)


class LogOS:
    """Stands in for ``os`` inside :mod:`repro.util.appendlog`.

    Counts the log's ``open`` / ``write`` / ``fsync`` calls and records
    each file's size at its last fsync (keyed by inode, so a compacted
    file inherits its temp file's record) — the prefix a power loss
    keeps.  :meth:`power_loss` cuts files back to that prefix.
    """

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.durable: dict[tuple[int, int], int] = {}

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, *args, **kwargs):
        self.calls["open"] += 1
        return os.open(*args, **kwargs)

    def write(self, fd, data):
        self.calls["write"] += 1
        return os.write(fd, data)

    def fsync(self, fd):
        self.calls["fsync"] += 1
        os.fsync(fd)
        st = os.fstat(fd)
        self.durable[st.st_dev, st.st_ino] = st.st_size

    def measure(self, op):
        """Run ``op()``; returns its result and the log calls it made,
        in ``op_budget.json``'s terms."""
        self.calls.clear()
        result = op()
        return result, {"appends": self.calls["write"],
                        "fsyncs": self.calls["fsync"],
                        "opens": self.calls["open"]}

    def power_loss(self, *paths) -> None:
        """Truncate each file to its size at its last fsync (or empty)."""
        for path in paths:
            st = os.stat(path)
            os.truncate(path, self.durable.get((st.st_dev, st.st_ino), 0))


@pytest.fixture
def log_os(monkeypatch) -> LogOS:
    """The append log's ``os``, replaced by a counting :class:`LogOS`."""
    spy = LogOS()
    monkeypatch.setattr(appendlog, "os", spy)
    return spy


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--fault-seed",
        type=int,
        default=2026,
        help="seed for the chaos/crash fault schedules (CI sweeps "
        "several values; determinism tests keep their own fixed seeds)",
    )


@pytest.fixture
def fault_seed(request: pytest.FixtureRequest) -> int:
    """The CLI-selected seed for randomized fault plans."""
    return request.config.getoption("--fault-seed")


@pytest.fixture
def config() -> CyrusConfig:
    """A (2, 3) config with test-size chunks."""
    return CyrusConfig(key="test-key", t=2, n=3, **SMALL_CHUNKS)


@pytest.fixture
def csps() -> list[InMemoryCSP]:
    """Four in-memory providers."""
    return [InMemoryCSP(f"csp{i}") for i in range(4)]


@pytest.fixture
def client(csps, config) -> CyrusClient:
    """A ready CYRUS client over the four providers."""
    return CyrusClient.create(csps, config, client_id="alice")


@pytest.fixture
def second_client(csps, config) -> CyrusClient:
    """An independent client over the same providers (another device)."""
    return CyrusClient.create(csps, config, client_id="bob")


def deterministic_bytes(size: int, seed: int = 0) -> bytes:
    """Seeded random content (not a fixture so tests can vary params)."""
    return random.Random(seed).randbytes(size)


def publish_node(store, node, stamp=None, indices=None) -> None:
    """Upload a node's framed shares straight to their slots (only the
    slots in ``indices`` when given): a store-level writer that needs no
    client."""
    for provider, name, blob, index in store.frames_for(node, stamp):
        if indices is None or index in indices:
            provider.upload(name, blob)


def read_nodes(store) -> dict:
    """Read every node the store's slots list through ``fetch_nodes``:
    node id -> the verified node, or None when it does not decode.

    Slots come from :func:`slot_listing`; a reachable slot of the
    node's group that lists without the object is passed as missing,
    as the scrub does, so a hole records a debt."""
    from repro.core.cloud import CyrusCloud
    from repro.core.sync import fetch_nodes
    from repro.core.transfer import DirectEngine
    from repro.metadata.codec import (
        metadata_share_name,
        parse_metadata_share_name,
    )
    from repro.redundancy.reconcile import slot_listing
    from repro.util.clock import SimClock

    providers = {p.csp_id: p for p in store.providers}
    engine = DirectEngine(providers, clock=SimClock())
    listing = slot_listing(engine, CyrusCloud(list(providers.values())),
                           store)
    wanted: dict[str, list] = {}
    missing: dict[str, list[int]] = {}
    for node_id in sorted({parse_metadata_share_name(name)[0]
                           for names in listing.values() for name in names}):
        for index, provider in enumerate(store.slots_of(node_id, listing)):
            name = metadata_share_name(node_id, index)
            names = listing.get(provider.csp_id)
            if names is None:
                continue
            if name in names:
                wanted.setdefault(node_id, []).append(
                    (index, None, provider.csp_id, name))
            else:
                missing.setdefault(node_id, []).append(index)
    _results, assemblers = fetch_nodes(engine, store, wanted, missing)
    return {node_id: asm.finish() for node_id, asm in assemblers.items()}
