"""Acceptance: the scatter/gather pool actually buys wall-clock time.

Four providers with equal, fixed per-request latency (the simulated
testbed's symmetric-CSP shape); a multi-chunk file is uploaded and read
back at parallelism 1 and at parallelism 4.  With every request costing
the same fixed service time, the serial engine pays for each share
transfer sequentially while the pool overlaps four — so the parallel
run must be at least 2x faster end to end (theoretical ceiling 4x;
the 2x floor leaves room for scheduler jitter on CI runners).  Each
side is timed three times, interleaved, and judged by its best run.
"""

from __future__ import annotations

import time

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp.base import CloudProvider
from repro.csp.memory import InMemoryCSP

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

#: Per-request service time; small enough to keep the test under a
#: second, large enough to dwarf the in-memory work it gates.
SERVICE_TIME_S = 0.002
FILE_SIZE = 16 * 1024  # ~32 chunks at SMALL_CHUNKS' 512 B average


class EqualLatencyCSP(CloudProvider):
    """An in-memory provider that charges a fixed latency per transfer."""

    def __init__(self, csp_id: str, service_time_s: float):
        super().__init__(csp_id)
        self.inner = InMemoryCSP(csp_id)
        self.service_time_s = service_time_s

    def authenticate(self, credentials):
        return self.inner.authenticate(credentials)

    def list(self, *, prefix: str = ""):
        return self.inner.list(prefix=prefix)

    def upload(self, name: str, data: bytes) -> None:
        time.sleep(self.service_time_s)
        self.inner.upload(name, data)

    def download(self, name: str) -> bytes:
        time.sleep(self.service_time_s)
        return self.inner.download(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)


def _timed_roundtrip(parallelism: int) -> float:
    providers = [
        EqualLatencyCSP(f"csp{i}", SERVICE_TIME_S) for i in range(4)
    ]
    config = CyrusConfig(
        key="bench-key", t=2, n=3, parallelism=parallelism, **SMALL_CHUNKS
    )
    client = CyrusClient.create(providers, config, client_id="alice")
    data = deterministic_bytes(FILE_SIZE, seed=77)
    start = time.perf_counter()
    client.put("big.bin", data)
    got = client.get("big.bin")
    elapsed = time.perf_counter() - start
    assert got.data == data
    return elapsed


#: Interleaved serial/parallel round trips; each side keeps its best,
#: so a burst of load from a neighbouring process on a small runner
#: costs one sample, not the verdict.
ROUNDS = 3


def test_parallelism_4_is_at_least_2x_faster_than_serial():
    samples = [(_timed_roundtrip(parallelism=1),
                _timed_roundtrip(parallelism=4)) for _ in range(ROUNDS)]
    serial = min(s for s, _p in samples)
    parallel = min(p for _s, p in samples)
    assert parallel < serial / 2.0, (
        f"parallel run took {parallel:.3f}s vs serial {serial:.3f}s "
        f"(speedup {serial / parallel:.2f}x, need >= 2x)"
    )
