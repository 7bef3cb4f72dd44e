"""Flow-level network simulation.

The paper's completion-time results (Figures 14--19) are driven by how
parallel share transfers contend for bandwidth: each CSP connection has
its own achievable rate, and all connections share the client's uplink
or downlink (paper Section 4.3).  This package reproduces exactly that
contention structure:

* :mod:`repro.netsim.tcp` — the RTT -> throughput model used to derive
  Table 2's throughput column (Mathis formula, 0.1 % loss, 64 KiB
  window cap);
* :mod:`repro.netsim.link` — a client<->CSP link with per-direction
  capacities and optional time-varying rate traces;
* :mod:`repro.netsim.simulator` — an event-driven, max--min-fair
  bandwidth-sharing simulator that computes per-transfer completion
  times for arbitrary sets of overlapping transfers.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.netsim.link": ("Link",),
    "repro.netsim.simulator": ("FlowSimulator", "TransferRequest"),
    "repro.netsim.trace": ("RateTrace",),
})
