"""A client without a tracer keeps metrics only.

Spans are recorded only into a tracer the owner attaches (the testbed
environments, ``cyrus trace``); a default client carries none. These
tests pin the two halves of that contract:

* a default client's observability does not grow with the number of
  ops it has run (the span tree it used to keep grew ~10 KiB per
  put + get pair, for the life of the process);
* attaching a tracer changes no metric: the byte, op, retry and
  duration accounting is the same with and without one.
"""

from __future__ import annotations

import tracemalloc

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.obs import Tracer
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CONFIG = CyrusConfig(key="obs-key", t=2, n=3, **SMALL_CHUNKS)
OBS_FILES = "*/repro/obs/*"


def _growth(before, after, pattern: str) -> int:
    """Bytes still allocated from files matching ``pattern`` that were
    not allocated at ``before``."""
    keep = [tracemalloc.Filter(True, pattern)]
    diff = after.filter_traces(keep).compare_to(
        before.filter_traces(keep), "filename")
    return sum(stat.size_diff for stat in diff)


def test_default_client_observability_does_not_grow_with_ops():
    client = CyrusClient.create(
        [InMemoryCSP(f"csp{i}") for i in range(3)], CONFIG)
    assert client.obs.tracer is None

    def put_get(i: int) -> None:
        data = deterministic_bytes(1024, seed=i)
        client.put(f"f{i}.bin", data)
        assert client.get(f"f{i}.bin").data == data

    tracemalloc.start()
    try:
        # warm-up: every metric series and label key exists, and values
        # replaced from here on were themselves allocated under tracing
        for i in range(20):
            put_get(i)
        before = tracemalloc.take_snapshot()
        for i in range(20, 220):
            put_get(i)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # no span is ever recorded ...
    assert _growth(before, after, "*/repro/obs/trace.py") == 0
    # ... and what the metrics hold does not grow with the op count. The
    # residue is fixed-size: a counter passing CPython's small-int cache
    # (256) is boxed once, and freed floats/tuples sit on free lists at
    # their allocation site. With the old always-on tracer these 200
    # pairs kept ~2 MB here.
    assert _growth(before, after, OBS_FILES) < 4096


def _run_sequence(traced: bool):
    """Two devices on one SimClock: puts, an edit, a delete, syncs, full
    and ranged reads, with scripted transient faults to retry. Returns
    both devices' metrics snapshots and the tracer (``None`` untraced)."""
    clock = SimClock()
    plan = FaultPlan([FaultSpec(kind=FaultKind.TRANSIENT,
                                ops=("upload", "download"), max_hits=2)],
                     seed=11)
    providers = {f"csp{i}": FaultyProvider(InMemoryCSP(f"csp{i}"), plan,
                                           clock=clock)
                 for i in range(4)}
    tracer = Tracer(clock) if traced else None

    def device(client_id: str) -> CyrusClient:
        client = CyrusClient.create(
            list(providers.values()), CONFIG, client_id=client_id,
            engine=DirectEngine(providers, clock=clock))
        client.obs.tracer = tracer
        return client

    a, b = device("dev-a"), device("dev-b")
    files = {f"f{i}.bin": deterministic_bytes(900 + 2500 * i, seed=60 + i)
             for i in range(3)}
    for name, data in files.items():
        a.put(name, data)
    edited = bytearray(files["f2.bin"])
    edited[100:120] = b"e" * 20
    a.put("f2.bin", bytes(edited))
    b.sync()
    assert b.get("f0.bin").data == files["f0.bin"]
    assert b.get("f2.bin").data == bytes(edited)
    assert b.get_range("f1.bin", 500, 1000).data == files["f1.bin"][500:1500]
    a.delete("f0.bin")
    b.sync()
    clock.advance(5.0)
    a.sync()
    return a.obs.snapshot(), b.obs.snapshot(), tracer


def _plain(snapshot) -> dict:
    return {
        "counters": {n: dict(s) for n, s in snapshot.counters.items()},
        "gauges": {n: dict(s) for n, s in snapshot.gauges.items()},
        "histograms": {n: dict(s) for n, s in snapshot.histograms.items()},
    }


def test_tracing_never_feeds_the_metrics():
    traced_a, traced_b, tracer = _run_sequence(traced=True)
    plain_a, plain_b, _ = _run_sequence(traced=False)
    # the traced run really recorded the ops it ran
    assert tracer.check_well_formed() == []
    assert len(tracer.find("upload")) == 4
    assert len(tracer.find("download")) == 3
    assert tracer.find("sync") and tracer.find("op")
    # every counter, gauge and histogram is the same without the tracer
    assert _plain(traced_a) == _plain(plain_a)
    assert _plain(traced_b) == _plain(plain_b)
    assert traced_a.counter_total("cyrus_transfer_bytes_total") > 0
    assert traced_b.counter_total("cyrus_ops_total", kind="GET") > 0
    retries = [snap.counter_total("cyrus_share_retries_total")
               + snap.counter_total("cyrus_meta_retries_total")
               for snap in (traced_a, traced_b)]
    assert sum(retries) > 0
