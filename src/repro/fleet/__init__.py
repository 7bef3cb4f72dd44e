"""repro.fleet — the multi-tenant fleet simulation harness.

Scales the paper's 20-user trial (Section 7.4) to hundreds of tenants
sharing CSP accounts and netsim links, with per-tenant namespaces
(:class:`repro.csp.NamespacedCSP`), metadata consistent-hashed across
CSP groups (:class:`repro.metadata.MetadataStore`), fair quota admission
(:class:`FleetQuota`) and seeded Zipf/Poisson workloads
(:mod:`repro.workloads.fleet`).  ``cyrus fleet`` drives it from the
command line and emits a schema-versioned ``FLEET_report.json``.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.fleet.harness": ("FleetHarness", "FleetResult", "FleetTopology",
                            "TenantResult", "run_fleet"),
    "repro.fleet.quota": ("FleetQuota",),
    "repro.fleet.report": ("fleet_gate", "load_fleet_report",
                           "validate_fleet_report", "write_fleet_report"),
})
