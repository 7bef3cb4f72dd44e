"""The verification lane: SHA-1 passes moved off the op's thread, every
check kept.

``repro.util.hashing.HashLane`` hands an op's hashing jobs to a
process-wide pool, where they run side by side, and the op joins them
only where it needs a verdict.
The fixtures here force the lane on for every op (threshold 0, two
CPUs even on a one-CPU host) or off, and the safety scenarios must read
the same bytes and count the same repairs and blame either way.  The
hashed bytes and SHA-1 calls per op are pinned in
``tests/data/op_budget.json`` ``hashed_bytes`` and must not depend on
where the hashing ran.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import downloader, uploader
from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.errors import InsufficientSharesError, ShareIntegrityError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.redundancy import DebtLedger
from repro.selection import RoundRobinSelector
from repro.util import hashing
from repro.util.clock import SimClock
from repro.util.hashing import HashLane, sha1_hex

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

OP_BUDGET = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)
BUDGET = OP_BUDGET["hashed_bytes"]

CONFIG = dict(key="lane-key", t=2, n=3, **SMALL_CHUNKS)
MODES = ("inline", "lane")


def _set_mode(monkeypatch, mode: str) -> None:
    """``lane``: every op gets a threaded lane, whatever its size or the
    host's CPU count; ``inline``: every op hashes on its own thread."""
    if mode == "lane":
        monkeypatch.setattr(hashing, "LANE_MIN_BYTES", 0)
        monkeypatch.setattr(hashing, "_cpus", lambda: 2)
    else:
        monkeypatch.setattr(hashing, "LANE_MIN_BYTES", float("inf"))


def _in_both_modes(scenario):
    """``scenario()`` run inline and then on a forced lane."""
    results = {}
    for mode in MODES:
        with pytest.MonkeyPatch.context() as patch:
            _set_mode(patch, mode)
            results[mode] = scenario()
    return results


class JobLog:
    """Stands in for ``hashing._run``: records which thread ran each
    lane job and how many are running, and slows every job a little so
    a caller that did not wait for its lane would see one still going."""

    def __init__(self):
        self.run = hashing._run
        self.lock = threading.Lock()
        self.running = 0
        self.threads: list[int] = []

    def __call__(self, job, fn, args):
        with self.lock:
            self.running += 1
            self.threads.append(threading.get_ident())
        try:
            time.sleep(0.0005)
            self.run(job, fn, args)
        finally:
            with self.lock:
                self.running -= 1


@pytest.fixture
def jobs(monkeypatch) -> JobLog:
    log = JobLog()
    monkeypatch.setattr(hashing, "_run", log)
    return log


def _client(client_id="a", providers=None, **kwargs) -> CyrusClient:
    providers = providers or [InMemoryCSP(f"csp{i}") for i in range(4)]
    return CyrusClient.create(providers, CyrusConfig(**CONFIG),
                              client_id=client_id, **kwargs)


def _repairs(client) -> float:
    return client.obs.snapshot().counter_total("cyrus_chunk_repairs_total")


def _blamed(client) -> dict[str, float]:
    return client.obs.snapshot().counter_by("cyrus_corrupt_shares_total",
                                            "csp")


def _edit(doc: bytes, pos: int, seed: int, length: int = 64) -> bytes:
    return doc[:pos] + deterministic_bytes(length, seed) + doc[pos + length:]


# -- the safety scenarios, inline against a forced lane -----------------------


def _repair_past_a_wrong_digest(ranged: bool):
    """A node whose recorded digest vouches for a tampered share: only
    the chunk-id check (a lane job) catches it; the caller repairs."""
    csps = [InMemoryCSP(f"csp{i}") for i in range(4)]
    client = _client(providers=csps)
    data = deterministic_bytes(6000, 6)
    node = client.put("f.bin", data).node
    record = node.chunks[0]

    def read():
        if ranged:
            return client.get_range("f.bin", 10, 100, sync_first=False)
        return client.get("f.bin", sync_first=False)

    fetched = {r.op.name for r in read().share_results}
    victim = next(s for s in node.shares_of(record.chunk_id)
                  if chunk_share_object_name(s.index, s.chunk_id) in fetched)
    name = chunk_share_object_name(victim.index, record.chunk_id)
    provider = next(c for c in csps if c.csp_id == victim.csp_id)
    blob = bytearray(provider.download(name))
    blob[0] ^= 0xFF
    provider.upload(name, bytes(blob))
    digests = list(record.share_digests)
    digests[victim.index] = sha1_hex(bytes(blob))
    lying = dataclasses.replace(node, chunks=(
        dataclasses.replace(record, share_digests=tuple(digests)),
        *node.chunks[1:],
    ))
    client.tree.version_at_depth = lambda *_args, **_kw: lying
    before = _repairs(client)
    report = read()
    assert name in {r.op.name for r in report.share_results}
    return report.data, _repairs(client) - before, _blamed(client)


@pytest.mark.parametrize("ranged", [False, True], ids=["get", "get_range"])
def test_repair_past_a_wrong_digest(ranged):
    data = deterministic_bytes(6000, 6)
    expected = data[10:110] if ranged else data
    runs = _in_both_modes(lambda: _repair_past_a_wrong_digest(ranged))
    assert runs["lane"] == runs["inline"]
    assert runs["lane"][:2] == (expected, 1)


def _liar_read(fault_seed: int):
    """A CORRUPT_READ liar serves a reader six successive edits."""
    from tests.test_byzantine import _byzantine_plan

    liar = f"csp{fault_seed % 3}"
    inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
    writer = _client("writer", providers=inner)
    clock = SimClock()
    wrapped = [FaultyProvider(p, _byzantine_plan(fault_seed, (liar,)),
                              clock=clock) for p in inner]
    reader = _client(
        "reader", providers=wrapped, selector=RoundRobinSelector(),
        engine=DirectEngine({p.csp_id: p for p in wrapped}, clock=clock),
    )
    rng = random.Random(fault_seed)
    doc = deterministic_bytes(12_000, seed=fault_seed)
    writer.put("doc.bin", doc)
    reads = []
    for _step in range(6):
        doc = _edit(doc, rng.randrange(len(doc) - 256),
                    seed=rng.randrange(1 << 30), length=rng.randint(1, 256))
        writer.put("doc.bin", doc)
        reads.append(reader.get("doc.bin").data == doc)
    return reads, _repairs(reader), _blamed(reader), liar


def test_byzantine_liar_read(fault_seed):
    runs = _in_both_modes(lambda: _liar_read(fault_seed))
    assert runs["lane"] == runs["inline"]
    reads, _repairs_, blamed, liar = runs["lane"]
    assert all(reads)
    assert set(blamed) == {liar}


def _tampered_cache_entry():
    client = _client()
    v0 = deterministic_bytes(16_000, seed=26)
    client.put("doc.bin", v0)
    client.put("doc.bin", _edit(v0, 4_000, seed=1))
    chunk_id, blob = next(iter(client.chunk_cache._entries.items()))
    client.chunk_cache._entries[chunk_id] = bytes([blob[0] ^ 1]) + blob[1:]
    with pytest.raises(ShareIntegrityError) as caught:
        client.get("doc.bin")
    return str(caught.value), _repairs(client), _blamed(client)


def test_tampered_cache_entry_fails_closed():
    runs = _in_both_modes(_tampered_cache_entry)
    assert runs["lane"] == runs["inline"]
    assert "content id" in runs["lane"][0]


def _total_outage_get():
    """Every provider dark and marked failed: the get raises after its
    one re-probe, before any lane job could stand in for a provider."""
    clock = SimClock()
    plan = FaultPlan([FaultSpec(kind=FaultKind.OUTAGE,
                                window_time=(100.0, float("inf")))], seed=0)
    csps = [FaultyProvider(InMemoryCSP(f"csp{i}"), plan, clock=clock)
            for i in range(4)]
    client = _client(providers=csps, engine=DirectEngine(
        {p.csp_id: p for p in csps}, clock=clock))
    data = deterministic_bytes(16_000, seed=3)
    client.put("doc.bin", data)
    client.put("doc.bin", _edit(data, 4_000, seed=4))  # cached, too
    clock.advance(100.0)
    for provider in csps:
        client.health.trip(provider.csp_id)
    with pytest.raises(InsufficientSharesError) as caught:
        client.get("doc.bin")
    return str(caught.value), _repairs(client), _blamed(client)


def test_total_outage_get():
    runs = _in_both_modes(_total_outage_get)
    assert runs["lane"] == runs["inline"]


# -- the lane's own contract -------------------------------------------------


class TestLaneContract:
    def test_a_raising_lane_job_surfaces_on_the_caller(self, monkeypatch):
        _set_mode(monkeypatch, "lane")
        client = _client()
        data = deterministic_bytes(20_000, 1)
        client.put("ok.bin", data)

        def broken(*_args):
            raise RuntimeError("lane job failed")

        with monkeypatch.context() as patch:
            patch.setattr(downloader, "_verify_chunk", broken)
            with pytest.raises(RuntimeError, match="lane job failed"):
                client.get("ok.bin")
        with monkeypatch.context() as patch:
            patch.setattr(uploader, "_share_digests", broken)
            with pytest.raises(RuntimeError, match="lane job failed"):
                client.put("new.bin", deterministic_bytes(20_000, 2))
        assert client.get("ok.bin").data == data

    def test_an_unjoined_failure_raises_when_the_lane_closes(self):
        lane = HashLane(0)
        with pytest.raises(ZeroDivisionError):
            with lane:
                lane.submit("chunk", 0, lambda: 1 / 0)
        # an error already leaving the block is not replaced
        with pytest.raises(KeyError):
            with HashLane(0) as lane:
                lane.submit("chunk", 0, lambda: 1 / 0)
                raise KeyError("first")

    def test_nothing_runs_once_put_or_get_returned(self, monkeypatch, jobs):
        _set_mode(monkeypatch, "lane")
        client = _client()
        data = deterministic_bytes(30_000, 3)
        caller = threading.get_ident()
        for op in (lambda: client.put("f.bin", data),
                   lambda: client.get("f.bin"),
                   lambda: client.get_range("f.bin", 100, 20_000),
                   lambda: client.put("f.bin", _edit(data, 500, 4)),
                   lambda: client.get("f.bin")):
            before = len(jobs.threads)
            op()
            assert jobs.running == 0
            assert len(jobs.threads) > before
        assert any(ident != caller for ident in jobs.threads)

    def test_a_small_op_starts_no_thread(self, jobs):
        client = _client()
        data = deterministic_bytes(30_000, 5)
        client.put("warm.bin", data)  # set-up of anything lazy
        threads = set(threading.enumerate())
        client.put("f.bin", data)
        assert client.get("f.bin").data == data
        assert set(threading.enumerate()) == threads
        assert set(jobs.threads) == {threading.get_ident()}

    def test_every_job_runs_once_under_contention(self, monkeypatch):
        """More submitting threads than CPUs, a tiny switch interval:
        every job of every lane runs exactly once, all of a lane's jobs
        are done when its ``with`` block exits, and a raising job
        re-raises on the thread that submitted it."""
        _set_mode(monkeypatch, "lane")
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for rep in range(40):
                    runs = [0] * 25
                    lock = threading.Lock()

                    def hit(i: int) -> int:
                        with lock:
                            runs[i] += 1
                        return i

                    with HashLane(0) as lane:
                        jobs = [lane.submit("chunk", 1, hit, i)
                                for i in range(25)]
                    assert all(job.done() for job in jobs)
                    assert runs == [1] * 25, runs
                    assert [lane.join(job) for job in jobs] == list(range(25))
                    marker = (seed, rep)
                    with pytest.raises(LookupError) as caught:
                        with HashLane(0) as lane:
                            lane.submit("chunk", 1, hit, 0)
                            failing = lane.submit(
                                "chunk", 1, _raise, LookupError(marker))
                    assert caught.value.args == (marker,)
                    with pytest.raises(LookupError):
                        lane.join(failing)
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

    def test_lane_metrics(self, monkeypatch):
        _set_mode(monkeypatch, "lane")
        client = _client()
        data = deterministic_bytes(20_000, 7)
        client.put("f.bin", data)
        client.get("f.bin")
        snap = client.obs.snapshot()
        by_kind = snap.counter_by(hashing.LANE_BYTES, "kind")
        node = client.tree.latest("f.bin")
        share_bytes = sum(
            record.n * -(-record.size // record.t) for record in node.chunks)
        # chunk: the put's ids, then the get's checks of every decode
        assert by_kind == {"chunk": 2 * len(data), "share": share_bytes}
        assert snap.histogram_data(hashing.LANE_WAIT) is not None


def _raise(error: Exception):
    raise error


# -- the exact hashed-bytes budget --------------------------------------------


class HashlibSpy:
    """Stands in for ``hashlib`` inside :mod:`repro.util.hashing`: counts
    SHA-1 objects made and the bytes fed to them, from any thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.calls = 0
        self.bytes = 0

    def feed(self, data) -> None:
        with self.lock:
            self.bytes += memoryview(data).nbytes

    def sha1(self, data=b""):
        with self.lock:
            self.calls += 1
        self.feed(data)
        return _CountingSha1(hashlib.sha1(data), self)

    def measure(self, op) -> dict[str, int]:
        with self.lock:
            self.calls = self.bytes = 0
        op()
        return {"sha1_bytes": self.bytes, "sha1_calls": self.calls}


class _CountingSha1:
    def __init__(self, inner, spy: HashlibSpy):
        self._inner = inner
        self._spy = spy

    def update(self, data) -> None:
        self._spy.feed(data)
        self._inner.update(data)

    def digest(self) -> bytes:
        return self._inner.digest()

    def hexdigest(self) -> str:
        return self._inner.hexdigest()


MiB = 1 << 20


@pytest.mark.parametrize("mode", MODES)
def test_hashed_bytes_per_op(monkeypatch, mode):
    """Default chunk sizes on a SimClock: a new 2 MiB file, then a
    cached 2 MiB edit (the version before it was an admitted edit, so
    the put's chunker skips and the get is all cache hits)."""
    _set_mode(monkeypatch, mode)
    spy = HashlibSpy()
    monkeypatch.setattr(hashing, "hashlib", spy)
    clock = SimClock()
    providers = [InMemoryCSP(f"csp{i}") for i in range(4)]
    client = CyrusClient.create(
        providers, CyrusConfig(key="budget-key", t=2, n=3),
        engine=DirectEngine({p.csp_id: p for p in providers}, clock=clock),
    )
    v0 = deterministic_bytes(2 * MiB, seed=30)
    v1 = _edit(v0, MiB, seed=31)
    v2 = _edit(v1, MiB // 2, seed=32)
    got = {"new_file_2mib": {
        "put": spy.measure(lambda: client.put("doc.bin", v0)),
        "get": spy.measure(lambda: client.get("doc.bin")),
    }}
    client.put("doc.bin", v1)
    got["cached_edit_2mib"] = {
        "put": spy.measure(lambda: client.put("doc.bin", v2)),
        "get": spy.measure(lambda: client.get("doc.bin")),
    }
    assert client.get("doc.bin").data == v2
    assert got == {case: BUDGET[case] for case in got}


class _CountingCSP(InMemoryCSP):
    """Counts the objects read from it."""

    def __init__(self, csp_id: str):
        super().__init__(csp_id)
        self.downloads = 0

    def download(self, name):
        self.downloads += 1
        return super().download(name)


@pytest.mark.parametrize("mode", MODES)
def test_read_verify_cost(monkeypatch, tmp_path, fault_seed, mode):
    """A one-chunk file at t=2, n=3 on four in-memory CSPs, read fault
    free and then with one of the two shares that read fetched
    bit-flipped (the seed picks which).  The fault-free get hashes the
    decoded chunk once and no share; the liar costs the share GETs,
    blame and debt of an eager digest check, plus one repair."""
    _set_mode(monkeypatch, mode)
    spy = HashlibSpy()
    monkeypatch.setattr(hashing, "hashlib", spy)
    budget = OP_BUDGET["read_verify"]
    csps = [_CountingCSP(f"csp{i}") for i in range(budget["csps"])]
    ledger = DebtLedger(tmp_path / "debts.jsonl", fsync=False)
    client = CyrusClient.create(
        csps, CyrusConfig(key="budget-key", t=budget["t"], n=budget["n"]),
        engine=DirectEngine({p.csp_id: p for p in csps}, clock=SimClock()),
        debt_ledger=ledger,
    )
    data = deterministic_bytes(budget["file_bytes"], seed=33)
    [record] = client.put("f.bin", data).node.chunks

    def read() -> dict[str, int]:
        before = sum(p.downloads for p in csps), _repairs(client)
        blamed = sum(_blamed(client).values())
        report = None

        def get():
            nonlocal report
            report = client.get("f.bin", sync_first=False)

        cost = spy.measure(get)
        assert report.data == data
        return {
            "share_gets": sum(p.downloads for p in csps) - before[0],
            "corrupt_shares": int(sum(_blamed(client).values()) - blamed),
            "debts": len(ledger.open_debts()),
            "chunk_repairs": int(_repairs(client) - before[1]),
            **cost,
        }, report

    fault_free, clean = read()
    fetched = sorted((r.op.name, r.op.csp_id) for r in clean.share_results)
    name, csp_id = fetched[fault_seed % len(fetched)]
    victim = next(p for p in csps if p.csp_id == csp_id)
    blob = bytearray(victim.download(name))
    blob[fault_seed % len(blob)] ^= 0xFF
    victim.upload(name, bytes(blob))
    one_liar, repaired = read()
    assert name in {r.op.name for r in repaired.share_results}
    assert _blamed(client) == {victim.csp_id: 1}
    # no share pass: the t shares alone hold as many bytes as the chunk
    assert fault_free["sha1_bytes"] < 2 * record.size
    assert {"fault_free": fault_free, "one_liar": one_liar} == {
        case: budget[case] for case in ("fault_free", "one_liar")}
