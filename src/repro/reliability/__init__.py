"""Reliability planning and failure simulation (paper Section 4.2, Figure 13)."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.reliability.failure_model": ("FailureEstimator",
                                        "downtime_to_probability",
                                        "simulate_request_failures"),
    "repro.reliability.planner": ("chunk_failure_probability",
                                  "minimum_shares"),
})
