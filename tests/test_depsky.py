"""Unit tests for the DepSky baseline (paper Section 7.3)."""

import os

import pytest

from repro.bench import build_paper_testbed
from repro.depsky import DepSkyClient
from repro.depsky.locks import LockProtocol
from repro.core.transfer import DirectEngine
from repro.csp import InMemoryCSP
from repro.errors import ConflictError, ObjectNotFoundError, TransferError


def direct_engine(count=4):
    providers = {f"c{i}": InMemoryCSP(f"c{i}") for i in range(count)}
    return DirectEngine(providers), sorted(providers)


class TestLockProtocol:
    def test_acquire_release(self):
        engine, ids = direct_engine()
        locks = LockProtocol(engine, ids, backoff_range=(0.0, 0.0))
        locks.acquire("obj", "w1")
        # our lock objects exist at every CSP
        for csp in ids:
            assert engine.provider(csp).list(prefix="ds-lock-obj-")
        locks.release("obj", "w1")
        for csp in ids:
            assert not engine.provider(csp).list(prefix="ds-lock-obj-")

    def test_contention_detected(self):
        engine, ids = direct_engine()
        other = LockProtocol(engine, ids, backoff_range=(0.0, 0.0))
        other.acquire("obj", "w-other")
        mine = LockProtocol(engine, ids, backoff_range=(0.0, 0.0),
                            max_attempts=2)
        with pytest.raises(ConflictError):
            mine.acquire("obj", "w-mine")

    def test_contention_clears_after_release(self):
        engine, ids = direct_engine()
        other = LockProtocol(engine, ids, backoff_range=(0.0, 0.0))
        other.acquire("obj", "w-other")
        other.release("obj", "w-other")
        mine = LockProtocol(engine, ids, backoff_range=(0.0, 0.0))
        mine.acquire("obj", "w-mine")  # must not raise

    def test_lock_payload_is_writer_id_padded(self):
        engine, ids = direct_engine()
        LockProtocol(engine, ids, backoff_range=(0.0, 0.0)).acquire("obj", "w1")
        for csp in ids:
            blob = engine.provider(csp).download("ds-lock-obj-w1")
            assert blob == b"w1".ljust(64, b"\0")

    def test_locks_are_per_object(self):
        engine, ids = direct_engine()
        a = LockProtocol(engine, ids, backoff_range=(0.0, 0.0))
        a.acquire("obj-one", "w1")
        b = LockProtocol(engine, ids, backoff_range=(0.0, 0.0))
        b.acquire("obj-two", "w2")  # different object: no contention


class TestDepSkyData:
    def test_roundtrip_direct(self):
        engine, ids = direct_engine()
        ds = DepSkyClient(engine, ids, key="k", t=2, n=3,
                          backoff_range=(0.0, 0.0))
        data = os.urandom(10_000)
        ds.upload("file", data)
        assert ds.download("file").data == data

    def test_missing_file(self):
        engine, ids = direct_engine()
        ds = DepSkyClient(engine, ids, key="k", backoff_range=(0.0, 0.0))
        with pytest.raises(ObjectNotFoundError):
            ds.download("ghost")

    def test_n_validated(self):
        engine, ids = direct_engine(2)
        with pytest.raises(TransferError):
            DepSkyClient(engine, ids, key="k", t=2, n=3)

    def test_lock_released_after_upload(self):
        engine, ids = direct_engine()
        ds = DepSkyClient(engine, ids, key="k", backoff_range=(0.0, 0.0))
        ds.upload("file", b"x" * 100)
        for csp in ids:
            assert not engine.provider(csp).list(prefix="ds-lock-")


class TestDepSkyBehaviour:
    def test_upload_skews_to_fast_csps(self):
        # Figure 18: DepSky keeps the shares that land first — the fast
        # CSPs' — while slow CSPs get cancelled
        env = build_paper_testbed()
        ds = DepSkyClient(env.engine, env.csp_ids(), key="k", t=2, n=3,
                          backoff_range=(0.0, 0.0))
        for i in range(6):
            ds.upload(f"f{i}", os.urandom(1_000_000))
        fast = sum(v for c, v in ds.shares_stored.items() if c.startswith("fast"))
        slow = sum(v for c, v in ds.shares_stored.items() if c.startswith("slow"))
        assert fast > 3 * max(slow, 1)

    def test_upload_slower_than_plain_scatter(self):
        # the 2-RTT lock + backoff must make DepSky uploads slower than
        # an equivalent lock-free scatter of the same bytes
        env = build_paper_testbed(rtt_s=0.05)
        ds = DepSkyClient(env.engine, env.csp_ids(), key="k", t=2, n=3,
                          backoff_range=(0.5, 0.5))
        report = ds.upload("f", os.urandom(2_000_000))
        assert report.duration > 0.5  # at least the backoff

    def test_download_uses_fastest_csps(self):
        env = build_paper_testbed()
        ids = env.csp_ids()
        ds = DepSkyClient(env.engine, ids, key="k", t=2,
                          n=len(ids), backoff_range=(0.0, 0.0))
        data = os.urandom(500_000)
        ds.upload("f", data)
        report = ds.download("f")
        assert report.data == data

    def test_download_falls_back_on_missing_share(self):
        engine, ids = direct_engine()
        ds = DepSkyClient(engine, ids, key="k", t=2, n=4,
                          backoff_range=(0.0, 0.0))
        data = os.urandom(20_000)
        ds.upload("f", data)
        # delete one stored share; download must fall through
        provider = engine.provider(ids[0])
        for info in list(provider.list(prefix="ds-share-")):
            provider.delete(info.name)
        assert ds.download("f").data == data
