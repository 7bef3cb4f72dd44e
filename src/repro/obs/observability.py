"""The :class:`Observability` bundle and the engine's four metric names.

One metrics registry and, when its owner attaches one, a tracer,
sharing one clock.  :meth:`Observability.record_op` is the single
integration point with the engines (see :mod:`repro.obs`).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, _label_key
from repro.util.clock import Clock, WallClock

if TYPE_CHECKING:
    from repro.obs.timeline import TransferTimeline
    from repro.obs.trace import Tracer

# Metric names (single place, so tests and docs cannot drift):
OPS_TOTAL = "cyrus_ops_total"                        # {csp, kind, outcome}
TRANSFER_BYTES = "cyrus_transfer_bytes_total"        # {csp, direction}
OP_FAILURES = "cyrus_op_failures_total"              # {csp, error_type}
OP_DURATION = "cyrus_op_duration_seconds"            # {kind}


class Observability:
    """One metrics registry and an optional tracer sharing one clock.

    ``tracer`` is ``None`` unless the owner passes one in (or assigns
    ``obs.tracer`` later, as ``cyrus trace`` does right before its op);
    without it :meth:`span` is a no-op and :meth:`record_op` charges
    the metrics only.
    """

    def __init__(self, clock: Clock | None = None,
                 tracer: Tracer | None = None):
        self.clock = clock if clock is not None else WallClock()
        self.metrics = MetricsRegistry()
        self.tracer = tracer
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
        tracer = self.tracer
        if tracer is None:
            return
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
        tracer.record("op", result.start, result.end, **attrs)

    # -- passthroughs -----------------------------------------------------

    def span(self, name: str, **attrs):
        tracer = self.tracer
        return (tracer.span(name, **attrs) if tracer is not None
                else nullcontext())

    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    def timeline(self) -> TransferTimeline:
        from repro.obs.timeline import TransferTimeline

        tracer = self.tracer
        return (TransferTimeline.from_tracer(tracer) if tracer is not None
                else TransferTimeline())


def span_if(obs: Observability | None, name: str, **attrs):
    """A span context when observability with a tracer is attached,
    else a no-op — lets instrumented code read the same with or without
    an observer."""
    return obs.span(name, **attrs) if obs is not None else nullcontext()
