"""The chunk cache: a get costs what the edit changed, and nothing else moves.

One byte-budgeted LRU of verified plaintext chunks per client
(``repro.core.chunkcache``, a fixed 16 MiB budget).  Only an *edit* — a
version that shares a chunk with its predecessor — fills it, and only
through one door: the writer writes its chunks through after commit.  A
get never admits.  A hit only shrinks the set of chunks a download
fetches; the placement check, every chunk's id check, lazy migration
and scrub are unchanged.  The counts are pinned in
``tests/data/op_budget.json``.
"""

from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chunking import ContentDefinedChunker
from repro.core.chunkcache import ChunkCache
from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.erasure import KeyedSharer
from repro.errors import InsufficientSharesError, ShareIntegrityError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.obs.metrics import MetricsRegistry
from repro.selection import RoundRobinSelector, relaxation
from repro.util.clock import SimClock
from repro.util.hashing import sha1_hex

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

BUDGET = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["chunk_cache"]

CONFIG = dict(key="cache-key", t=2, n=3, **SMALL_CHUNKS)


def _edit(doc: bytes, pos: int, seed: int, length: int = 64) -> bytes:
    """Overwrite ``length`` bytes at ``pos``: a small in-place edit."""
    return doc[:pos] + deterministic_bytes(length, seed) + doc[pos + length:]


V0 = deterministic_bytes(16_000, seed=26)
V1 = _edit(V0, 4_000, seed=1)
V2 = _edit(_edit(V1, 9_000, seed=2), 13_000, seed=3)


class World:
    """Four in-memory CSPs on one SimClock; each device has its engine."""

    def __init__(self, wrap=None):
        self.clock = SimClock()
        self.raw = [InMemoryCSP(f"csp{i}") for i in range(4)]
        self.providers = [wrap(p, self.clock) if wrap else p
                          for p in self.raw]
        self.config = CyrusConfig(**CONFIG)

    def device(self, client_id: str, **kwargs) -> CyrusClient:
        engine = DirectEngine({p.csp_id: p for p in self.providers},
                              clock=self.clock)
        return CyrusClient.create(self.providers, self.config,
                                  client_id=client_id, engine=engine,
                                  **kwargs)


@pytest.fixture
def counts(monkeypatch):
    """``measure(client, op)`` -> (result, the get's pinned counts)."""
    calls = {"lp_solves": 0, "joins": 0}
    solve = relaxation.lp_given_bandwidth
    join = KeyedSharer.join

    def counting_solve(*args, **kwargs):
        calls["lp_solves"] += 1
        return solve(*args, **kwargs)

    def counting_join(self, shares):
        calls["joins"] += 1
        return join(self, shares)

    monkeypatch.setattr(relaxation, "lp_given_bandwidth", counting_solve)
    monkeypatch.setattr(KeyedSharer, "join", counting_join)

    def share_gets(client) -> float:
        return client.obs.snapshot().counter_total("cyrus_ops_total",
                                                   kind="GET")

    def measure(client, op):
        calls.update(lp_solves=0, joins=0)
        before = share_gets(client)
        report = op()
        return report, {
            "share_gets": int(share_gets(client) - before),
            "lp_solves": calls["lp_solves"],
            "joins": calls["joins"],
            "bytes_down": report.bytes_downloaded,
        }

    return measure


def _chunk_ids(node) -> set[str]:
    return {r.chunk_id for r in node.chunks}


def _node(chunk_ids) -> SimpleNamespace:
    """A stand-in predecessor node holding ``chunk_ids``."""
    return SimpleNamespace(
        chunks=[SimpleNamespace(chunk_id=c) for c in chunk_ids])


def _admit(cache: ChunkCache, pairs) -> None:
    """Admit ``pairs`` as a re-save of a version with the same chunks:
    an edit that replaces nothing."""
    cache.admit_edit(pairs, _node(cid for cid, _data in pairs))


def _held(cache: ChunkCache) -> int:
    return sum(len(blob) for blob in cache._entries.values())


# -- the exact-count budget ---------------------------------------------------


class TestCountBudget:
    def test_same_client_edit_get_moves_nothing(self, counts):
        writer = World().device("writer")
        writer.put("doc.bin", V0)
        writer.put("doc.bin", V1)
        report, got = counts(writer, lambda: writer.get("doc.bin"))
        assert report.data == V1
        assert got == BUDGET["same_client_edit_get"]
        assert got == {"share_gets": 0, "lp_solves": 0, "joins": 0,
                       "bytes_down": 0}

    def test_a_cold_device_fetches_every_chunk_and_admits_none(self, counts):
        world = World()
        writer = world.device("writer")
        for doc in (V0, V1, V2):
            writer.put("doc.bin", doc)
        reader = world.device("reader")
        assert reader.get("doc.bin", version=1).data == V1
        report, got = counts(reader, lambda: reader.get("doc.bin"))
        assert report.data == V2
        chunks = len(_chunk_ids(report.node))
        assert got["share_gets"] == CONFIG["t"] * chunks
        assert {"chunks": chunks, **got} == BUDGET["cold_device_v2_get"]
        assert reader.chunk_cache.bytes == BUDGET["admitted_bytes"]["reader"]

    def test_new_files_and_rewrites_admit_nothing(self):
        writer = World().device("writer")
        writer.put("doc.bin", V0)
        new_file = writer.chunk_cache.bytes
        writer.put("doc.bin", deterministic_bytes(len(V0), seed=99))
        rewrite = writer.chunk_cache.bytes
        assert {"new_file": new_file, "rewrite": rewrite} == {
            k: BUDGET["admitted_bytes"][k] for k in ("new_file", "rewrite")}

    def test_an_edit_drops_the_chunks_it_replaced(self, counts):
        client = World().device("a")
        for doc in (V0, V1, V2):
            head = client.put("doc.bin", doc).node
        assert set(client.chunk_cache._entries) == _chunk_ids(head)
        # history is not cached: reading v1 fetches what v2 replaced
        v1 = client.tree.get(head.prev_id)
        report, got = counts(client, lambda: client.get("doc.bin", version=1))
        assert report.data == V1
        replaced = len(_chunk_ids(v1) - _chunk_ids(head))
        assert got["share_gets"] == CONFIG["t"] * replaced > 0
        # and reading it admitted nothing
        assert set(client.chunk_cache._entries) == _chunk_ids(head)


class TestBudget:
    def test_occupancy_never_exceeds_the_budget(self):
        budget = 3_000
        metrics = MetricsRegistry()
        cache = ChunkCache(budget, metrics=metrics)
        chunker = ContentDefinedChunker(
            min_size=SMALL_CHUNKS["chunk_min"],
            avg_size=SMALL_CHUNKS["chunk_avg"],
            max_size=SMALL_CHUNKS["chunk_max"],
        )
        rng = random.Random(5)
        doc = V0
        prev = None
        for step in range(13):
            pairs = [(c.id, c.data) for c in chunker.chunk_bytes(doc)]
            cache.admit_edit(pairs, prev)
            assert _held(cache) == cache.bytes <= budget
            assert all(sha1_hex(blob) == cid
                       for cid, blob in cache._entries.items())
            prev = _node(cid for cid, _data in pairs)
            doc = _edit(doc, rng.randrange(len(doc) - 64), seed=100 + step)
        assert cache.bytes > 0
        assert metrics.snapshot().counter_total(
            "cyrus_chunk_cache_evictions_total") > 0

    def test_a_chunk_larger_than_the_budget_is_never_admitted(self):
        cache = ChunkCache(100)
        _admit(cache, [("big", b"x" * 101), ("small", b"y" * 100)])
        assert list(cache._entries) == ["small"]
        _admit(cache, [("big", b"x" * 101)])
        assert cache.bytes == 100

    def test_lru_keeps_the_most_recently_used(self):
        cache = ChunkCache(30)
        _admit(cache, [("a", b"a" * 10), ("b", b"b" * 10), ("c", b"c" * 10)])
        assert cache.lookup(["a"]) == {"a": b"a" * 10}
        _admit(cache, [("d", b"d" * 10)])  # evicts b, the least recent
        assert list(cache._entries) == ["c", "a", "d"]

    def test_spans_are_a_snapshot_that_moves_nothing(self):
        metrics = MetricsRegistry()
        cache = ChunkCache(30, metrics=metrics)
        _admit(cache, [("a", b"a" * 10), ("b", b"b" * 10)])
        spans = cache.spans()
        _admit(cache, [("c", b"c" * 10)])
        assert spans == (b"a" * 10, b"b" * 10)
        assert list(cache._entries) == ["a", "b", "c"]
        assert not metrics.snapshot().counter_total(
            "cyrus_chunk_cache_requests_total")

    def test_concurrent_admits_and_lookups_keep_the_byte_total(self):
        cache = ChunkCache(5_000)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    ids = [f"c{rng.randrange(64)}" for _ in range(4)]
                    _admit(cache, [(cid, b"x" * (10 * int(cid[1:]) + 1))
                                   for cid in ids])
                    cache.lookup(ids)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert _held(cache) == cache.bytes <= cache.budget_bytes

    def test_metrics(self):
        metrics = MetricsRegistry()
        cache = ChunkCache(20, metrics=metrics)
        _admit(cache, [("a", b"a" * 10), ("b", b"b" * 10), ("c", b"c" * 10)])
        cache.lookup(["b", "c", "z"])
        snap = metrics.snapshot()
        requests = snap.counter_by("cyrus_chunk_cache_requests_total",
                                   "outcome")
        assert requests == {"hit": 2, "miss": 1}
        assert snap.counter_total("cyrus_chunk_cache_evictions_total") == 1
        assert snap.gauge_value("cyrus_chunk_cache_bytes") == 20


# -- safety: the cache is never an availability path --------------------------


def _dark_after(start: float):
    """Wrap a provider so every operation fails from ``start`` on."""
    plan = FaultPlan([FaultSpec(kind=FaultKind.OUTAGE,
                                window_time=(start, float("inf")))], seed=0)
    return lambda provider, clock: FaultyProvider(provider, plan, clock=clock)


class TestSafety:
    def test_no_degraded_read_path(self):
        world = World(wrap=_dark_after(100.0))
        client = world.device("a")
        client.put("doc.bin", V0)
        client.put("doc.bin", V1)
        assert _chunk_ids(client.tree.latest("doc.bin")) <= set(
            client.chunk_cache._entries)
        world.clock.advance(100.0)
        for provider in world.providers:
            client.health.trip(provider.csp_id)
        with pytest.raises(InsufficientSharesError):
            client.get("doc.bin")

    def test_scrub_reads_providers_not_the_cache(self):
        world = World()
        client = world.device("a")
        client.put("doc.bin", V0)
        node = client.put("doc.bin", V1).node
        chunk_id = node.chunks[0].chunk_id
        index, csp = client.chunk_table.get(chunk_id).placements[0]
        victim = next(p for p in world.raw if p.csp_id == csp)
        name = chunk_share_object_name(index, chunk_id)
        victim.delete(name)
        assert client.get("doc.bin").bytes_downloaded == 0  # cache hides it
        report = client.scrub()
        assert report.shares_missing == 1
        assert report.shares_repaired == 1
        assert name in {info.name for info in victim.list(prefix=name)}
        assert client.scrub().healthy

    def test_a_tampered_entry_fails_its_chunk_id_check(self):
        client = World().device("a")
        client.put("doc.bin", V0)
        client.put("doc.bin", V1)
        chunk_id, blob = next(iter(client.chunk_cache._entries.items()))
        client.chunk_cache._entries[chunk_id] = bytes([blob[0] ^ 1]) + blob[1:]
        with pytest.raises(ShareIntegrityError):
            client.get("doc.bin")

    def test_a_tampered_entry_moves_a_cut_never_an_id(self):
        """A cached chunk with one byte flipped, then an edit that flips
        the same byte and so puts a candidate cut inside that chunk: the
        put skips the entry's span unscanned, so the cut moves, but
        every chunk id is the SHA-1 of the bytes stored, and a second
        device reads the edit back bit-exact."""
        world = World()
        writer = world.device("writer")
        writer.put("doc.bin", V0)
        head = writer.put("doc.bin", V1).node
        chunker = writer.uploader.chunker

        def flips():
            for record in head.chunks[:-1]:
                lo = record.offset + chunker.min_size - 1
                for pos in range(lo, record.offset + record.size - 1):
                    for bit in range(8):
                        edit = bytearray(V1)
                        edit[pos] ^= 1 << bit
                        if chunker._hit_at(bytes(edit), pos + 1):
                            return record, bytes(edit)

        record, v2 = flips()
        end = record.offset + record.size
        writer.chunk_cache._entries[record.chunk_id] = v2[record.offset:end]
        node = writer.put("doc.bin", v2).node
        stored = [(r.offset, r.offset + r.size) for r in node.chunks]
        assert [b for _a, b in stored] != chunker.boundaries(v2)
        assert (record.offset, end) in stored
        assert all(r.chunk_id == sha1_hex(v2[r.offset:r.offset + r.size])
                   for r in node.chunks)
        assert world.device("reader").get("doc.bin").data == v2

    def test_lazy_migration_rehomes_cached_chunks(self):
        world = World()
        client = world.device("a")
        client.put("doc.bin", V0)
        node = client.put("doc.bin", V1).node
        holder = node.shares[0].csp_id
        client.remove_csp(holder)
        report = client.get("doc.bin")
        assert report.data == V1
        assert report.bytes_downloaded == 0  # every chunk was a hit
        assert report.migrations
        assert all(m.new_csp != holder for m in report.migrations)
        for record in node.chunks:
            live = [c for _i, c in client.chunk_table.get(
                record.chunk_id).placements if c != holder]
            assert len(set(live)) >= record.n

    def test_cache_survives_recover_and_membership_changes(self):
        world = World()
        client = world.device("a")
        client.put("doc.bin", V0)
        client.put("doc.bin", V1)
        cache = client.chunk_cache
        client.recover()
        client.add_csp(InMemoryCSP("csp-new"))
        assert client.downloader.cache is client.uploader.cache is cache
        assert client.get("doc.bin").bytes_downloaded == 0


# -- Byzantine readers: a get admits nothing ----------------------------------


def test_cached_reader_behind_a_liar_reads_every_edit(fault_seed):
    """A CORRUPT_READ liar (n - t = 1 provider, chosen by the seed)
    serves a reader device six successive edits: each reads back
    bit-exact, the liar alone is blamed, and the reader's cache stays
    empty, so nothing a provider served was admitted.  The writer's
    entries all hash to their key."""
    from tests.test_byzantine import _byzantine_plan

    liar = f"csp{fault_seed % 3}"
    inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
    writer = CyrusClient.create(inner, CyrusConfig(**CONFIG),
                                client_id="writer")
    clock = SimClock()
    wrapped = [FaultyProvider(p, _byzantine_plan(fault_seed, (liar,)),
                              clock=clock) for p in inner]
    reader = CyrusClient.create(
        wrapped, CyrusConfig(**CONFIG), client_id="reader",
        engine=DirectEngine({p.csp_id: p for p in wrapped}, clock=clock),
        selector=RoundRobinSelector(),
    )
    rng = random.Random(fault_seed)
    doc = deterministic_bytes(12_000, seed=fault_seed)
    writer.put("doc.bin", doc)
    for step in range(6):
        doc = _edit(doc, rng.randrange(len(doc) - 256),
                    seed=rng.randrange(1 << 30), length=rng.randint(1, 256))
        writer.put("doc.bin", doc)
        assert reader.get("doc.bin").data == doc, f"edit {step}"
    blamed = reader.obs.snapshot().counter_by("cyrus_corrupt_shares_total",
                                              "csp")
    assert set(blamed) == {liar}
    assert reader.chunk_cache.bytes == 0
    assert not reader.chunk_cache._entries
    entries = writer.chunk_cache._entries
    assert entries
    assert all(sha1_hex(blob) == chunk_id for chunk_id, blob in entries.items())
