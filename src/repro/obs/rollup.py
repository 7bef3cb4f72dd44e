"""Fleet-level metric rollups: latency percentiles and load balance.

A fleet run produces one :class:`MetricsSnapshot` per tenant (each
client owns its Observability) plus per-tenant latency samples from the
harness.  This module folds them into the two fleet-level views the
paper's evaluation cares about:

* **latency percentiles** — per-tenant and fleet p50/p99 of sync and
  transfer times, computed with the nearest-rank method (exact on the
  sample set, no interpolation, deterministic);
* **load balance** — per-CSP byte and operation totals from the merged
  snapshots (``cyrus_transfer_bytes_total`` / ``cyrus_ops_total``, the
  engine-recorded single source of byte/op truth), summarised as a
  *skew* ratio max/mean.  Consistent-hash placement should keep skew
  near 1; the CI gate fails a fleet run whose skew reaches 2.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.obs.metrics import MetricsSnapshot
from repro.obs.observability import OPS_TOTAL, TRANSFER_BYTES


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); NaN on no samples."""
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not samples:
        return math.nan
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(samples: Sequence[float]) -> dict[str, float]:
    """count/p50/p99/mean/max of one latency sample set."""
    if not samples:
        return {"count": 0, "p50": math.nan, "p99": math.nan,
                "mean": math.nan, "max": math.nan}
    return {
        "count": len(samples),
        "p50": percentile(samples, 50),
        "p99": percentile(samples, 99),
        "mean": sum(samples) / len(samples),
        "max": max(samples),
    }


def merge_snapshots(snapshots: Sequence[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold per-tenant snapshots into one fleet snapshot (associative)."""
    if not snapshots:
        raise ValueError("need at least one snapshot")
    merged = snapshots[0]
    for snap in snapshots[1:]:
        merged = merged.merge(snap)
    return merged


def per_csp_bytes(snapshot: MetricsSnapshot) -> dict[str, float]:
    """Bytes moved per CSP (uploads + downloads), from the registry."""
    return snapshot.counter_by(TRANSFER_BYTES, "csp")


def per_csp_ops(snapshot: MetricsSnapshot) -> dict[str, float]:
    """Operations dispatched per CSP, from the registry."""
    return snapshot.counter_by(OPS_TOTAL, "csp")


def load_skew(per_csp: Mapping[str, float]) -> float:
    """max/mean load ratio across CSPs (1.0 = perfectly balanced).

    NaN when nothing was recorded — a run that moved zero bytes has no
    balance to speak of, and NaN trips the CI finiteness gate rather
    than masquerading as perfect balance.
    """
    loads = [v for v in per_csp.values() if v > 0]
    if not loads:
        return math.nan
    return max(loads) / (sum(loads) / len(loads))
