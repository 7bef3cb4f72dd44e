"""Experiment runners shared by the table/figure benchmarks, plus the
``cyrus bench`` hot-path measurements.

The ``bench_*`` functions time the three layers this codebase
vectorised — GF(2^8) coding, chunk-boundary detection, and the
end-to-end sync pipeline — and :func:`run_bench` persists the results
as the schema-checked ``BENCH_codec.json`` / ``BENCH_e2e.json`` the CI
regression gate compares against its committed baseline.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.client import CyrusClient
from repro.core.downloader import DownloadReport
from repro.core.uploader import UploadReport


@dataclass
class DurationSummary:
    """Aggregate statistics over completion times."""

    count: int
    total: float
    mean: float
    median: float
    p90: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, durations: Sequence[float]) -> "DurationSummary":
        if not durations:
            raise ValueError("no durations to summarise")
        ordered = sorted(durations)
        p90_index = min(len(ordered) - 1, int(0.9 * len(ordered)))
        return cls(
            count=len(ordered),
            total=sum(ordered),
            mean=statistics.fmean(ordered),
            median=statistics.median(ordered),
            p90=ordered[p90_index],
            minimum=ordered[0],
            maximum=ordered[-1],
        )


def upload_files(
    client: CyrusClient,
    files: Iterable[tuple[str, bytes]],
    sync_first: bool = False,
) -> list[UploadReport]:
    """Put every (name, content) pair; returns per-file reports."""
    return [
        client.put(name, content, sync_first=sync_first)
        for name, content in files
    ]


def download_files(
    client: CyrusClient,
    names: Iterable[str],
    sync_first: bool = False,
) -> list[DownloadReport]:
    """Get every named file; returns per-file reports."""
    return [client.get(name, sync_first=sync_first) for name in names]


def summarize_durations(
    reports: Sequence[UploadReport | DownloadReport],
) -> DurationSummary:
    """Completion-time summary over a batch of reports."""
    return DurationSummary.of([r.duration for r in reports])


def throughputs(
    reports: Sequence[UploadReport | DownloadReport],
    sizes: Sequence[int],
) -> list[float]:
    """Per-file achieved throughput (original file bytes / duration)."""
    out = []
    for report, size in zip(reports, sizes):
        if report.duration > 0:
            out.append(size / report.duration)
    return out


# ----------------------------------------------------------------------
# `cyrus bench` hot-path measurements
# ----------------------------------------------------------------------


def _best_rate(fn, payload_bytes: int, repeats: int) -> float:
    """MB/s of the best of ``repeats`` timed runs (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return payload_bytes / best / 1e6


def bench_codec(
    quick: bool = True,
    t: int = 2,
    n: int = 4,
    vec_bytes: int | None = None,
    sca_bytes: int | None = None,
    repeats: int | None = None,
) -> dict:
    """Encode/decode MB/s for both codec backends, plus chunking MB/s.

    The scalar oracle runs on a smaller payload (it is ~two orders of
    magnitude slower); MB/s normalises the comparison, and the
    ``*_speedup`` ratios are the machine-independent gate metrics.
    Size/repeat overrides exist for the smoke tests — real runs use the
    quick/full defaults.
    """
    from repro.chunking.cdc import ContentDefinedChunker
    from repro.erasure.rs import RSCodec

    if vec_bytes is None:
        vec_bytes = (4 if quick else 32) * 1024 * 1024
    if sca_bytes is None:
        sca_bytes = (256 if quick else 1024) * 1024
    if repeats is None:
        repeats = 2 if quick else 4
    rng = random.Random(0xC0DEC)
    vec_data = rng.randbytes(vec_bytes)
    sca_data = vec_data[:sca_bytes]

    vector = RSCodec(t, n, backend="vector")
    scalar = RSCodec(t, n, backend="scalar")
    metrics: dict[str, float] = {}

    metrics["encode_vector_mbps"] = _best_rate(
        lambda: vector.encode(vec_data), vec_bytes, repeats
    )
    vec_shares = vector.encode(vec_data)[:t]
    metrics["decode_vector_mbps"] = _best_rate(
        lambda: vector.decode(vec_shares), vec_bytes, repeats
    )
    metrics["encode_scalar_mbps"] = _best_rate(
        lambda: scalar.encode(sca_data), sca_bytes, 1
    )
    sca_shares = scalar.encode(sca_data)[:t]
    metrics["decode_scalar_mbps"] = _best_rate(
        lambda: scalar.decode(sca_shares), sca_bytes, 1
    )
    metrics["encode_speedup"] = (
        metrics["encode_vector_mbps"] / metrics["encode_scalar_mbps"]
    )
    metrics["decode_speedup"] = (
        metrics["decode_vector_mbps"] / metrics["decode_scalar_mbps"]
    )

    # chunk-boundary detection: all three engines over the same buffer
    chunk_kw = dict(min_size=2048, avg_size=8192, max_size=65536)
    for engine, payload in (
        ("vectorized", vec_data),
        ("rabin", vec_data),
        ("reference", sca_data),
    ):
        chunker = ContentDefinedChunker(engine=engine, **chunk_kw)
        metrics[f"chunk_{engine}_mbps"] = _best_rate(
            lambda: chunker.boundaries(payload), len(payload), repeats
        )
    metrics["chunk_rabin_speedup"] = (
        metrics["chunk_rabin_mbps"] / metrics["chunk_reference_mbps"]
    )

    from repro.bench.reporting import BENCH_SCHEMA

    return {
        "schema": BENCH_SCHEMA,
        "kind": "codec",
        "quick": quick,
        "params": {
            "t": t,
            "n": n,
            "vector_bytes": vec_bytes,
            "scalar_bytes": sca_bytes,
            "repeats": repeats,
        },
        "metrics": metrics,
    }


def bench_e2e(quick: bool = True, size: int | None = None) -> dict:
    """Wall-clock put/get throughput against in-memory providers.

    Providers are in-memory, so this isolates the *client* pipeline —
    chunk, dedup, encode, scatter, metadata — exactly the layers the
    vectorised hot path covers.
    """
    from repro.core.config import CyrusConfig
    from repro.csp.memory import InMemoryCSP

    if size is None:
        size = (8 if quick else 64) * 1024 * 1024
    rng = random.Random(0xE2E)
    data = rng.randbytes(size)
    providers = [InMemoryCSP(f"bench-csp-{i}") for i in range(4)]
    config = CyrusConfig(
        key="bench-key",
        chunk_min=64 * 1024,
        chunk_avg=256 * 1024,
        chunk_max=2 * 1024 * 1024,
    )
    client = CyrusClient.create(providers, config, client_id="bench")
    try:
        t0 = time.perf_counter()
        report = client.put("bench/file.bin", data, sync_first=False)
        put_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        fetched = client.get("bench/file.bin", sync_first=False)
        get_s = time.perf_counter() - t0
        if fetched.data != data:
            raise RuntimeError("bench e2e round-trip corrupted the payload")
    finally:
        client.close()

    from repro.bench.reporting import BENCH_SCHEMA

    return {
        "schema": BENCH_SCHEMA,
        "kind": "e2e",
        "quick": quick,
        "params": {
            "file_bytes": size,
            "csps": len(providers),
            "t": config.t,
            "n": config.n,
            "new_chunks": report.new_chunks,
        },
        "metrics": {
            "put_mbps": size / put_s / 1e6,
            "get_mbps": size / get_s / 1e6,
            "put_seconds": put_s,
            "get_seconds": get_s,
        },
    }


def run_bench(quick: bool = True, out_dir=".") -> dict[str, dict]:
    """Run both bench suites and write BENCH_codec.json / BENCH_e2e.json.

    Returns ``{"codec": report, "e2e": report}`` (already validated).
    """
    import os

    from repro.bench.reporting import write_bench_report

    reports = {"codec": bench_codec(quick=quick), "e2e": bench_e2e(quick=quick)}
    for kind, report in reports.items():
        write_bench_report(report, os.path.join(out_dir, f"BENCH_{kind}.json"))
    return reports
