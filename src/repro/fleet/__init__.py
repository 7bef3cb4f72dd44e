"""repro.fleet — the multi-tenant fleet simulation harness.

Scales the paper's 20-user trial (Section 7.4) to hundreds of tenants
sharing CSP accounts and netsim links, with per-tenant namespaces
(:class:`repro.csp.NamespacedCSP`), metadata consistent-hashed across
CSP groups (:class:`repro.metadata.MetadataStore`), fair quota admission
(:class:`FleetQuota`) and seeded Zipf/Poisson workloads
(:mod:`repro.workloads.fleet`).  ``cyrus fleet`` drives it from the
command line and emits a schema-versioned ``FLEET_report.json``.
"""

from repro.fleet.harness import (
    FleetHarness,
    FleetResult,
    FleetTopology,
    TenantResult,
    run_fleet,
)
from repro.fleet.quota import FleetQuota, QuotaGrant
from repro.fleet.report import (
    FLEET_SCHEMA,
    MAX_LOAD_SKEW,
    fleet_gate,
    load_fleet_report,
    validate_fleet_report,
    write_fleet_report,
)

__all__ = [
    "FleetHarness",
    "FleetResult",
    "FleetTopology",
    "TenantResult",
    "run_fleet",
    "FleetQuota",
    "QuotaGrant",
    "FLEET_SCHEMA",
    "MAX_LOAD_SKEW",
    "fleet_gate",
    "load_fleet_report",
    "validate_fleet_report",
    "write_fleet_report",
]
