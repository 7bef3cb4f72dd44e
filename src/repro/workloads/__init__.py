"""Workload generation: the Table 4 dataset, the user-trial scenarios,
and the multi-tenant fleet workloads (Zipf popularity, Poisson arrivals)."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workloads.dataset": ("TABLE4_PROFILE", "generate_dataset"),
    "repro.workloads.fleet": ("FleetWorkloadSpec", "derive_rng",
                              "generate_fleet_workload", "zipf_weights"),
    "repro.workloads.generator": ("redundant_bytes", "random_bytes",
                                  "edited_copy"),
    "repro.workloads.trial": ("TRIAL_PROFILES", "trial_environment"),
})
