"""Figure 12 — empirical overhead of chunk encoding and decoding vs (t, n).

The paper measures a 100 MB chunk; we sweep the same (t, n) ranges on a
scaled chunk (wall-clock measured — this benchmark is about *our*
codec's real speed) and assert the paper's shapes: decoding slows with
t, encoding slows with n, and throughput stays high enough that coding
is never the transfer bottleneck at the paper's operating points.
"""

import os
import time

from repro.bench.reporting import render_table
from repro.erasure import RSCodec

from benchmarks.conftest import print_table

#: Scaled from the paper's 100 MB (wall-time benchmark, keep it snappy).
CHUNK_BYTES = 8 * 1024 * 1024

_PAYLOAD = os.urandom(CHUNK_BYTES)


#: Best of three: coding an 8 MB chunk takes ~10 ms, the same order as
#: first-touch page faults on its freshly allocated output.
_REPEATS = 3


def _best_rate(fn, payload_bytes: int, repeats: int) -> float:
    """MB/s of the best of ``repeats`` timed runs (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return payload_bytes / best / 1e6


def encode_throughput(t: int, n: int) -> float:
    codec = RSCodec(t, n)
    return _best_rate(lambda: codec.encode(_PAYLOAD), CHUNK_BYTES, _REPEATS)


def decode_throughput(t: int, n: int) -> float:
    codec = RSCodec(t, n)
    shares = codec.encode(_PAYLOAD)[:t]
    return _best_rate(lambda: codec.decode(shares), CHUNK_BYTES, _REPEATS)


def test_figure12_decode_throughput_vs_t(benchmark):
    sweep = [(t, t + 1) for t in (2, 3, 5, 8, 10)]
    results = {}
    for t, n in sweep:
        results[(t, n)] = decode_throughput(t, n)
    benchmark.pedantic(
        lambda: RSCodec(3, 5).decode(RSCodec(3, 5).encode(_PAYLOAD)[:3]),
        rounds=3, iterations=1,
    )
    print_table(
        "Figure 12 (decode): throughput vs t",
        render_table(
            ["t", "n", "decode MB/s"],
            [[t, n, f"{mbs:.0f}"] for (t, n), mbs in results.items()],
        ),
    )
    # shape: larger t decodes slower (end points; middle may be noisy)
    assert results[(10, 11)] < results[(2, 3)]
    # operating range (2,3)..(3,5): still fast enough to keep transfer
    # the bottleneck (paper: >= 300 MB/s on their hardware; we only
    # require well above the testbed's 15 MB/s links)
    assert results[(2, 3)] > 60
    assert results[(3, 4)] > 60
    for key, value in results.items():
        benchmark.extra_info[f"decode_{key}"] = round(value, 1)


def test_figure12_encode_throughput_vs_n(benchmark):
    sweep = [(2, n) for n in (3, 5, 7, 9, 11)]
    results = {}
    for t, n in sweep:
        results[(t, n)] = encode_throughput(t, n)
    benchmark.pedantic(lambda: RSCodec(2, 3).encode(_PAYLOAD),
                       rounds=3, iterations=1)
    print_table(
        "Figure 12 (encode): throughput vs n",
        render_table(
            ["t", "n", "encode MB/s"],
            [[t, n, f"{mbs:.0f}"] for (t, n), mbs in results.items()],
        ),
    )
    assert results[(2, 11)] < results[(2, 3)]
    assert results[(2, 3)] > 60
    for key, value in results.items():
        benchmark.extra_info[f"encode_{key}"] = round(value, 1)
