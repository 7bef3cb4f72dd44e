"""Deterministic fault injection for chaos testing.

CYRUS's central claim is graceful behaviour under autonomous-CSP
failure (Section 5.5).  This package makes that claim testable: a
:class:`FaultPlan` scripts outages, transient errors, latency spikes,
slow transfers, quota exhaustion, auth expiry, share bit-flip
corruption and client deaths (:class:`repro.faults.plan.SimulatedCrash`)
from a single seed, and :class:`FaultyProvider` applies the plan to any
provider through the normal five-primitive interface.  Same seed + same
operation sequence = byte-identical fault schedule, so chaos tests and
failure benchmarks are reproducible.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.faults.plan": ("FaultKind", "FaultPlan", "FaultSpec"),
    "repro.faults.provider": ("FaultyProvider",),
})
