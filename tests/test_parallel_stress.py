"""Seeded multi-thread chaos: parallel scatter/gather under fault injection.

The serial chaos suite (test_faults_chaos.py) proves the failure
handling is *correct*; this one proves it stays correct when four pool
workers race through the same breakers, journal, metrics registry and
fault-injecting providers at once.  The ground truth is a counting
wrapper sitting *under* the :class:`FaultyProvider`: every operation
that genuinely reached storage is tallied there with its byte size, and
at the end the observability ledger (``cyrus_ops_total`` /
``cyrus_transfer_bytes_total``) must agree with it exactly — op for op,
byte for byte, per CSP and per direction.  Any lost update in a racy
counter, any double-dispatched op, any share uploaded but not recorded
shows up as a mismatch or as a scrub orphan.

Assertions are deliberately schedule-independent: worker interleaving
varies run to run, but the *multiset* of injected faults is a pure
function of each provider's claimed op number, so totals (not
orderings) are what get compared.

Marked ``slow``; the CI chaos matrix runs it across several seeds.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.parallel import POOL_DISPATCH, POOL_INFLIGHT_PEAK
from repro.core.transfer import DirectEngine
from repro.csp.base import CloudProvider
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultyProvider
from repro.obs import OPS_TOTAL, TRANSFER_BYTES
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CYCLES = 24
PARALLELISM = 4

#: Engine op kinds grouped by the provider primitive they reach.
UPLOAD_KINDS = ("PUT", "PUT_META")
DOWNLOAD_KINDS = ("GET", "GET_META")


class CountingCSP(CloudProvider):
    """Ground-truth ledger below the fault injector.

    Counts only calls that *succeed* at the wrapped provider — a fault
    raised above never reaches here, and a genuine provider error (e.g.
    not-found) raises before the tally — so the counts correspond
    one-for-one to engine ops recorded with ``outcome="ok"``.
    """

    def __init__(self, inner: CloudProvider):
        super().__init__(inner.csp_id)
        self.inner = inner
        self._lock = threading.Lock()
        self.uploads = 0
        self.downloads = 0
        self.deletes = 0
        self.bytes_up = 0
        self.bytes_down = 0

    def authenticate(self, credentials):
        return self.inner.authenticate(credentials)

    def list(self, *, prefix: str = ""):
        return self.inner.list(prefix=prefix)

    def upload(self, name: str, data: bytes) -> None:
        self.inner.upload(name, data)
        with self._lock:
            self.uploads += 1
            self.bytes_up += len(data)

    def download(self, name: str) -> bytes:
        data = self.inner.download(name)
        with self._lock:
            self.downloads += 1
            self.bytes_down += len(data)
        return data

    def delete(self, name: str) -> None:
        self.inner.delete(name)
        with self._lock:
            self.deletes += 1


def _chaos_plan(seed: int) -> FaultPlan:
    """Same bounded-recoverability shape as the serial chaos suite:
    corruption and the op-windowed outage both land on csp1 (at most
    n - t = 1 provider lying or dark at once); transient blips and
    latency spikes hit everybody."""
    return FaultPlan.chaos(
        seed=seed,
        transient_rate=0.08,
        corrupt_csp_ids=("csp1",),
        corrupt_rate=0.5,
        outage_csp_id="csp1",
        outage_window_ops=(40, 90),
        latency_rate=0.05,
        latency_s=0.1,
    )


def _run_parallel_scenario(seed: int):
    """CYCLES put/get rounds at parallelism=4 under the chaos plan."""
    clock = SimClock()
    plan = _chaos_plan(seed)
    counters = [CountingCSP(InMemoryCSP(f"csp{i}")) for i in range(4)]
    providers = [FaultyProvider(c, plan, clock=clock) for c in counters]
    config = CyrusConfig(
        key="stress-key", t=2, n=3,
        parallelism=PARALLELISM, max_inflight_per_csp=2,
        **SMALL_CHUNKS,
    )
    engine = DirectEngine(
        {p.csp_id: p for p in providers}, clock=clock,
        parallelism=PARALLELISM, max_inflight_per_csp=2,
    )
    client = CyrusClient.create(
        providers, config, client_id="alice", engine=engine
    )
    stored: dict[str, bytes] = {}
    for cycle in range(CYCLES):
        client.probe_failed_csps()
        name = f"file-{cycle}.bin"
        data = deterministic_bytes(600 + 97 * cycle, seed=1000 + cycle)
        client.put(name, data)
        stored[name] = data
        got = client.get(name)
        assert got.data == data, f"cycle {cycle}: fresh read lost data"
        old = f"file-{cycle // 2}.bin"
        assert client.get(old).data == stored[old], (
            f"cycle {cycle}: re-read of {old} lost data"
        )
    return client, providers, counters


@pytest.mark.slow
class TestParallelChaosStress:
    def test_ledger_matches_ground_truth_and_scrub_is_clean(self, fault_seed):
        client, providers, counters = _run_parallel_scenario(fault_seed)

        # the chaos plan actually bit, and the pool actually ran ops
        injected = {
            kind: sum(p.injected_faults.get(kind, 0) for p in providers)
            for kind in FaultKind
        }
        assert injected[FaultKind.TRANSIENT] > 0
        assert injected[FaultKind.OUTAGE] > 0
        assert injected[FaultKind.CORRUPT] > 0

        # a final full-table scrub (itself running through the pool)
        # finds nothing unaccounted for: every share the parallel
        # uploader landed is in the chunk table — no orphans
        report = client.scrub()
        assert report.orphans == ()

        # metric ledger vs ground truth, per CSP, per primitive
        snap = client.obs.snapshot()
        assert snap.counter_total(POOL_DISPATCH) > 0  # parallel path used
        for counting in counters:
            csp = counting.csp_id
            ok_uploads = sum(
                snap.counter_total(OPS_TOTAL, csp=csp, kind=k, outcome="ok")
                for k in UPLOAD_KINDS
            )
            ok_downloads = sum(
                snap.counter_total(OPS_TOTAL, csp=csp, kind=k, outcome="ok")
                for k in DOWNLOAD_KINDS
            )
            ok_deletes = snap.counter_total(
                OPS_TOTAL, csp=csp, kind="DELETE", outcome="ok"
            )
            assert ok_uploads == counting.uploads, (
                f"{csp}: ledger says {ok_uploads} uploads succeeded, "
                f"storage saw {counting.uploads}"
            )
            assert ok_downloads == counting.downloads, (
                f"{csp}: ledger says {ok_downloads} downloads succeeded, "
                f"storage saw {counting.downloads}"
            )
            assert ok_deletes == counting.deletes
            # and byte-for-byte (DELETEs carry no payload)
            assert snap.counter_total(
                TRANSFER_BYTES, csp=csp, direction="up"
            ) == counting.bytes_up
            assert snap.counter_total(
                TRANSFER_BYTES, csp=csp, direction="down"
            ) == counting.bytes_down

    def test_pool_bounds_hold_under_chaos(self, fault_seed):
        """The high-water occupancy gauges prove the per-CSP and total
        in-flight caps were never breached, even while retries and
        failovers were feeding extra ops into running batches."""
        client, _providers, counters = _run_parallel_scenario(fault_seed)
        snap = client.obs.snapshot()
        total_peak = snap.gauge_value(POOL_INFLIGHT_PEAK, csp="*")
        assert 0 < total_peak <= PARALLELISM
        for counting in counters:
            peak = snap.gauge_value(POOL_INFLIGHT_PEAK, csp=counting.csp_id)
            assert peak <= 2  # max_inflight_per_csp
