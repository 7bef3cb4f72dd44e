"""Zero-dependency metrics: counters, gauges, fixed-bucket histograms.

The paper's evaluation (Sections 6-8) is built on *measured* quantities
— bytes moved per CSP, per-chunk completion times, retry counts under
churn — which the repro previously re-derived ad hoc inside each
benchmark.  :class:`MetricsRegistry` is the single place those numbers
accumulate: the transfer engine, the retry loops, the health registry
and the network simulator all record into one registry, and
tests/benchmarks read an immutable :class:`MetricsSnapshot` instead of
recomputing from reports.

Design rules (all load-bearing for the test suite):

* label sets are normalised to sorted tuples, so a series is identified
  independently of keyword order;
* counters only go up; negative increments are errors;
* histograms have *fixed* bucket bounds chosen at creation — observing
  never changes the layout, so snapshots of the same metric are always
  merge-compatible;
* :meth:`MetricsRegistry.snapshot` deep-copies into read-only mappings:
  later registry activity never mutates an existing snapshot;
* :meth:`MetricsSnapshot.merge` is associative (counters and histogram
  buckets add; gauges add; min/max combine), so per-worker snapshots
  can be folded in any grouping.
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

LabelKey = tuple  # tuple[tuple[str, str], ...]

#: Default duration buckets (seconds): sub-millisecond API calls up to
#: minutes-long simulated WAN transfers.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 300.0,
)


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelKey) -> dict[str, str]:
    return dict(key)


def _matches(key: LabelKey, subset: Mapping[str, object]) -> bool:
    have = dict(key)
    return all(have.get(k) == str(v) for k, v in subset.items())


class Counter:
    """A monotonically increasing, labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.inc_key(_label_key(labels), amount)

    def inc_key(self, key: LabelKey, amount: float = 1.0) -> None:
        """:meth:`inc` for a label key built once by the caller."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """The value of one exact label set (0 if never incremented)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def total(self, **labels) -> float:
        """Sum over every series matching the given label *subset*."""
        with self._lock:
            return sum(v for k, v in self._series.items() if _matches(k, labels))

    def series(self) -> dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)


class Gauge:
    """A labelled value that can move both ways (e.g. inflight ops)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels) -> None:
        """Raise the gauge to ``value`` if below (atomic high-water mark)."""
        key = _label_key(labels)
        with self._lock:
            if value > self._series.get(key, 0.0):
                self._series[key] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def series(self) -> dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)


@dataclass(frozen=True)
class HistogramData:
    """One series' frozen histogram state.

    ``counts`` has ``len(bounds) + 1`` entries: one per upper bound plus
    the overflow bucket.  Invariants (asserted by the property tests):
    ``sum(counts) == count``; the cumulative sequence is monotone and
    ends at ``count``; ``bound(min) <= ... <= bound(max)``.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    sum: float
    min: float | None
    max: float | None

    def cumulative(self) -> tuple[int, ...]:
        """Prometheus-style cumulative ``le`` counts (ends at count)."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return tuple(out)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram:
    """A labelled histogram with fixed bucket upper bounds."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name}: need at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name}: bucket bounds must be strictly increasing"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        # per label set: [counts list, count, sum, min, max]
        self._series: dict[LabelKey, list] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        self.observe_key(_label_key(labels), value)

    def observe_key(self, key: LabelKey, value: float) -> None:
        """:meth:`observe` for a label key built once by the caller."""
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = [[0] * (len(self.bounds) + 1), 0, 0.0, None, None]
                self._series[key] = state
            idx = bisect.bisect_left(self.bounds, value)
            state[0][idx] += 1
            state[1] += 1
            state[2] += value
            state[3] = value if state[3] is None else min(state[3], value)
            state[4] = value if state[4] is None else max(state[4], value)

    def data(self, **labels) -> HistogramData:
        with self._lock:
            state = self._series.get(_label_key(labels))
            if state is None:
                return HistogramData(self.bounds,
                                     (0,) * (len(self.bounds) + 1),
                                     0, 0.0, None, None)
            counts, count, total, lo, hi = state
            return HistogramData(self.bounds, tuple(counts), count, total,
                                 lo, hi)

    def series(self) -> dict[LabelKey, HistogramData]:
        with self._lock:
            keys = list(self._series)
        return {key: self.data(**_labels_dict(key)) for key in keys}


def _merge_hist(a: HistogramData, b: HistogramData) -> HistogramData:
    if a.bounds != b.bounds:
        raise ValueError("cannot merge histograms with different buckets")
    lo = a.min if b.min is None else (b.min if a.min is None else min(a.min, b.min))
    hi = a.max if b.max is None else (b.max if a.max is None else max(a.max, b.max))
    return HistogramData(
        bounds=a.bounds,
        counts=tuple(x + y for x, y in zip(a.counts, b.counts)),
        count=a.count + b.count,
        sum=a.sum + b.sum,
        min=lo,
        max=hi,
    )


class MetricsSnapshot:
    """A frozen, read-only view of a registry at one instant.

    The nested mappings are :class:`types.MappingProxyType` over private
    copies: mutating the source registry afterwards does not change the
    snapshot, and attempts to assign into the snapshot raise.
    """

    def __init__(
        self,
        counters: Mapping[str, Mapping[LabelKey, float]],
        gauges: Mapping[str, Mapping[LabelKey, float]],
        histograms: Mapping[str, Mapping[LabelKey, HistogramData]],
    ):
        self.counters = MappingProxyType(
            {n: MappingProxyType(dict(s)) for n, s in counters.items()}
        )
        self.gauges = MappingProxyType(
            {n: MappingProxyType(dict(s)) for n, s in gauges.items()}
        )
        self.histograms = MappingProxyType(
            {n: MappingProxyType(dict(s)) for n, s in histograms.items()}
        )

    # -- reads ------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        return self.counters.get(name, {}).get(_label_key(labels), 0.0)

    def counter_total(self, name: str, **labels) -> float:
        """Sum of a counter over every series matching a label subset."""
        series = self.counters.get(name, {})
        return sum(v for k, v in series.items() if _matches(k, labels))

    def counter_by(self, name: str, label: str, **labels) -> dict[str, float]:
        """A counter aggregated by one label (e.g. per-CSP totals)."""
        out: dict[str, float] = {}
        for key, value in self.counters.get(name, {}).items():
            if not _matches(key, labels):
                continue
            who = dict(key).get(label)
            if who is not None:
                out[who] = out.get(who, 0.0) + value
        return dict(sorted(out.items()))

    def gauge_value(self, name: str, **labels) -> float:
        return self.gauges.get(name, {}).get(_label_key(labels), 0.0)

    def histogram_data(self, name: str, **labels) -> HistogramData | None:
        series = self.histograms.get(name, {})
        merged: HistogramData | None = None
        for key, data in series.items():
            if not _matches(key, labels):
                continue
            merged = data if merged is None else _merge_hist(merged, data)
        return merged

    # -- algebra ----------------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise sum of two snapshots (associative)."""
        counters: dict[str, dict[LabelKey, float]] = {}
        for src in (self.counters, other.counters):
            for name, series in src.items():
                bucket = counters.setdefault(name, {})
                for key, value in series.items():
                    bucket[key] = bucket.get(key, 0.0) + value
        gauges: dict[str, dict[LabelKey, float]] = {}
        for src in (self.gauges, other.gauges):
            for name, series in src.items():
                bucket = gauges.setdefault(name, {})
                for key, value in series.items():
                    bucket[key] = bucket.get(key, 0.0) + value
        hists: dict[str, dict[LabelKey, HistogramData]] = {}
        for src in (self.histograms, other.histograms):
            for name, series in src.items():
                bucket = hists.setdefault(name, {})
                for key, data in series.items():
                    prior = bucket.get(key)
                    bucket[key] = data if prior is None else _merge_hist(prior, data)
        return MetricsSnapshot(counters, gauges, hists)

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict:
        def series_out(series: Mapping[LabelKey, float]) -> list[dict]:
            return [
                {"labels": _labels_dict(k), "value": v}
                for k, v in sorted(series.items())
            ]

        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, series in sorted(self.counters.items()):
            out["counters"][name] = series_out(series)
        for name, series in sorted(self.gauges.items()):
            out["gauges"][name] = series_out(series)
        for name, series in sorted(self.histograms.items()):
            out["histograms"][name] = [
                {
                    "labels": _labels_dict(k),
                    "bounds": list(d.bounds),
                    "counts": list(d.counts),
                    "count": d.count,
                    "sum": d.sum,
                    "min": d.min,
                    "max": d.max,
                }
                for k, d in sorted(series.items())
            ]
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class MetricsRegistry:
    """The process-wide family store: name -> Counter/Gauge/Histogram.

    Re-requesting an existing name returns the existing metric; asking
    for the same name as a different kind (or a histogram with different
    buckets) is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[object]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def _get(self, name: str, kind: type, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] | None = None) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            if buckets is not None and tuple(float(b) for b in buckets) != existing.bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with different buckets"
                )
            return existing
        return self._get(name, Histogram, help=help,
                         buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS)

    # -- one-line conveniences -------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        self.counter(name).inc(amount, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name).observe(value, **labels)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.gauge(name).set(value, **labels)

    def snapshot(self) -> MetricsSnapshot:
        counters: dict[str, dict[LabelKey, float]] = {}
        gauges: dict[str, dict[LabelKey, float]] = {}
        hists: dict[str, dict[LabelKey, HistogramData]] = {}
        with self._lock:
            metrics = list(self._metrics.items())
        for name, metric in metrics:
            if isinstance(metric, Counter):
                counters[name] = metric.series()
            elif isinstance(metric, Gauge):
                gauges[name] = metric.series()
            elif isinstance(metric, Histogram):
                hists[name] = metric.series()
        return MetricsSnapshot(counters, gauges, hists)
