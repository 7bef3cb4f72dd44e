"""repro.obs — zero-dependency observability for the transfer stack.

Three cooperating pieces, all driven by the injected
:class:`repro.util.clock.Clock` so simulated runs stay deterministic:

* :class:`MetricsRegistry` / :class:`MetricsSnapshot` — labelled
  counters, gauges and fixed-bucket histograms (bytes per CSP, retries,
  breaker transitions, encode/decode time);
* :class:`Tracer` / :class:`Span` — nested span trees per operation
  (sync → chunk → share put/get), exportable as JSON and Chrome-trace;
* :class:`TransferTimeline` — the paper's Figure 14/17 per-CSP parallel
  transfer picture, rebuilt from op results or op spans.

:class:`Observability` bundles one registry + one tracer and owns the
single integration point with the engines: every ``OpResult`` that flows
through ``TransferEngine._emit`` lands in :meth:`Observability.record_op`,
making the metrics layer the one source of byte/retry truth (reports and
benchmarks derive from it instead of re-counting).
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    _label_key,
)
from repro.obs.timeline import TimelineBar, TransferTimeline
from repro.obs.trace import Span, Tracer
from repro.util.clock import Clock, WallClock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observability",
    "Span",
    "TimelineBar",
    "Tracer",
    "TransferTimeline",
    "span_if",
    "latency_summary",
    "load_skew",
    "merge_snapshots",
    "per_csp_bytes",
    "per_csp_ops",
    "percentile",
]

# Metric names (single place, so tests and docs cannot drift):
OPS_TOTAL = "cyrus_ops_total"                        # {csp, kind, outcome}
TRANSFER_BYTES = "cyrus_transfer_bytes_total"        # {csp, direction}
OP_FAILURES = "cyrus_op_failures_total"              # {csp, error_type}
OP_DURATION = "cyrus_op_duration_seconds"            # {kind}


class Observability:
    """One metrics registry + one tracer sharing one clock."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock if clock is not None else WallClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock)
        # record_op's four metrics, and its label keys per op shape
        self._ops = self.metrics.counter(OPS_TOTAL)
        self._bytes = self.metrics.counter(TRANSFER_BYTES)
        self._failures = self.metrics.counter(OP_FAILURES)
        self._durations = self.metrics.histogram(OP_DURATION)
        self._op_keys: dict[tuple, tuple] = {}

    # -- engine hook ------------------------------------------------------

    def record_op(self, result) -> None:
        """Ingest one engine ``OpResult``: the authoritative accounting
        of every dispatched provider operation.

        Bytes are counted exactly once per *successful* op — retries and
        failed attempts never inflate ``cyrus_transfer_bytes_total``,
        which is what makes this layer the single source of truth the
        ad-hoc benchmark accounting was not.
        """
        op = result.op
        kind = op.kind.value if hasattr(op.kind, "value") else str(op.kind)
        outcome = ("cancelled" if result.cancelled
                   else "ok" if result.ok else "error")
        shape = (op.csp_id, op.kind, outcome, result.error_type)
        keys = self._op_keys.get(shape)
        if keys is None:
            keys = self._op_keys[shape] = (
                _label_key(dict(csp=op.csp_id, kind=kind, outcome=outcome)),
                _label_key(dict(csp=op.csp_id, direction=op.kind.direction)),
                _label_key(dict(csp=op.csp_id,
                                error_type=result.error_type or "unknown")),
                _label_key(dict(kind=kind)),
            )
        self._ops.inc_key(keys[0])
        nbytes = (len(result.data) if result.data is not None
                  else op.payload_size())
        if result.ok:
            self._bytes.inc_key(keys[1], nbytes)
        elif not result.cancelled:
            self._failures.inc_key(keys[2])
        if not result.cancelled:
            self._durations.observe_key(keys[3], result.duration)
        attrs = {
            "csp": op.csp_id,
            "op_kind": kind,
            "object": op.name,
            "bytes": nbytes if result.ok else 0,
            "ok": result.ok,
        }
        if result.cancelled:
            attrs["cancelled"] = True
        if op.chunk_id:
            attrs["chunk"] = op.chunk_id
        if result.error_type:
            attrs["error_type"] = result.error_type
        self.tracer.record("op", result.start, result.end, **attrs)

    # -- passthroughs -----------------------------------------------------

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    def timeline(self) -> TransferTimeline:
        return TransferTimeline.from_tracer(self.tracer)


def span_if(obs: Observability | None, name: str, **attrs):
    """A span context when observability is attached, else a no-op —
    lets instrumented code read the same with or without an observer."""
    return obs.span(name, **attrs) if obs is not None else nullcontext()


# Imported last: rollup reads the metric-name constants above from this
# package, so it must only load once they exist.
from repro.obs.rollup import (  # noqa: E402
    latency_summary,
    load_skew,
    merge_snapshots,
    per_csp_bytes,
    per_csp_ops,
    percentile,
)
