"""repro.obs — zero-dependency observability for the transfer stack.

Three cooperating pieces, all driven by the injected
:class:`repro.util.clock.Clock` so simulated runs stay deterministic:

* :class:`MetricsRegistry` / :class:`MetricsSnapshot` — labelled
  counters, gauges and fixed-bucket histograms (bytes per CSP, retries,
  breaker transitions, encode/decode time);
* :class:`Tracer` — nested span trees per operation
  (sync → chunk → share put/get), exportable as JSON and Chrome-trace;
* :class:`TransferTimeline` — the paper's Figure 14/17 per-CSP parallel
  transfer picture, rebuilt from op results or op spans.

:class:`Observability` bundles one registry and, when its owner attaches
one, a tracer.  It owns the single integration point with the engines:
every ``OpResult`` that flows through ``TransferEngine._emit`` lands in
:meth:`Observability.record_op`, making the metrics layer the one source
of byte/retry truth (reports and benchmarks derive from it instead of
re-counting).  Metrics are always on; spans are recorded only into an
attached tracer, because a long-lived client that kept a span tree for
every op it ever ran would grow without bound.  The simulated testbed
environments and ``cyrus trace`` attach one; a default client does not.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.metrics": ("MetricsRegistry", "MetricsSnapshot"),
    "repro.obs.observability": ("Observability", "span_if", "OPS_TOTAL",
                                "TRANSFER_BYTES"),
    "repro.obs.rollup": ("latency_summary", "load_skew", "merge_snapshots",
                         "per_csp_bytes", "per_csp_ops"),
    "repro.obs.timeline": ("TransferTimeline",),
    "repro.obs.trace": ("Tracer",),
})
