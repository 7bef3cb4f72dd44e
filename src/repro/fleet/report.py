"""The schema-versioned ``FLEET_report.json`` format.

A fleet run emits one JSON document tagged ``cyrus-fleet/v1``,
:func:`validate_fleet_report` refuses malformed documents, and the CI
fleet job gates on :func:`fleet_gate` — p99 sync latency must be finite
and per-CSP load skew must stay under 2x under balanced placement.

Everything in the report derives from the simulated clock, the seeded
workload and the merged metrics registry — no wall-clock timestamps,
no host-dependent values — so two runs with the same seed produce
byte-identical report files (the determinism contract the smoke test
pins).
"""

from __future__ import annotations

import json
import math

#: Schema tag every fleet report must carry.
FLEET_SCHEMA = "cyrus-fleet/v1"

#: Default CI gate: per-CSP byte/op load skew must stay below this.
MAX_LOAD_SKEW = 2.0

#: Fields every latency summary block must carry.
_LATENCY_FIELDS = ("count", "p50", "p99", "mean", "max")


def _check_latency_block(name: str, block: object) -> None:
    if not isinstance(block, dict):
        raise ValueError(f"{name} must be a dict, got {type(block).__name__}")
    for field in _LATENCY_FIELDS:
        if field not in block:
            raise ValueError(f"{name} missing {field!r}")
        value = block[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name}[{field!r}] must be a number, got {value!r}")


def validate_fleet_report(report: dict) -> None:
    """Raise ValueError unless ``report`` is a well-formed fleet report.

    Required shape::

        {"schema": "cyrus-fleet/v1",
         "params": {str: ...},                  # tenants, seed, topology
         "workload_fingerprint": str,           # SHA-1 of all tenant plans
         "fleet": {"sync_latency": {...}, "op_latency": {...},
                   "per_csp_bytes": {csp: num}, "per_csp_ops": {csp: num},
                   "byte_skew": num, "op_skew": num,
                   "converged_tenants": int, "namespace_collisions": int},
         "tenants": {tenant_id: {"converged": bool, "files": int,
                                 "stored_bytes": num, "namespace_digest": str,
                                 "sync_latency": {...}}}}
    """
    if not isinstance(report, dict):
        raise ValueError(f"fleet report must be a dict, got {type(report).__name__}")
    if report.get("schema") != FLEET_SCHEMA:
        raise ValueError(
            f"fleet report schema {report.get('schema')!r} != {FLEET_SCHEMA!r}"
        )
    params = report.get("params")
    if not isinstance(params, dict) or not all(isinstance(k, str) for k in params):
        raise ValueError("fleet report 'params' must be a str-keyed dict")
    if not isinstance(report.get("workload_fingerprint"), str):
        raise ValueError("fleet report needs a 'workload_fingerprint' string")
    fleet = report.get("fleet")
    if not isinstance(fleet, dict):
        raise ValueError("fleet report 'fleet' must be a dict")
    _check_latency_block("fleet.sync_latency", fleet.get("sync_latency"))
    _check_latency_block("fleet.op_latency", fleet.get("op_latency"))
    for key in ("per_csp_bytes", "per_csp_ops"):
        block = fleet.get(key)
        if not isinstance(block, dict) or not block:
            raise ValueError(f"fleet.{key} must be a non-empty dict")
        for csp, value in block.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"fleet.{key}[{csp!r}] must be a number")
    for key in ("byte_skew", "op_skew"):
        value = fleet.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"fleet.{key} must be a number, got {value!r}")
    for key in ("converged_tenants", "namespace_collisions"):
        if not isinstance(fleet.get(key), int):
            raise ValueError(f"fleet.{key} must be an int")
    tenants = report.get("tenants")
    if not isinstance(tenants, dict) or not tenants:
        raise ValueError("fleet report 'tenants' must be a non-empty dict")
    for tid, entry in tenants.items():
        if not isinstance(entry, dict):
            raise ValueError(f"tenants[{tid!r}] must be a dict")
        if not isinstance(entry.get("converged"), bool):
            raise ValueError(f"tenants[{tid!r}].converged must be a bool")
        if not isinstance(entry.get("namespace_digest"), str):
            raise ValueError(f"tenants[{tid!r}].namespace_digest must be a str")
        _check_latency_block(f"tenants[{tid!r}].sync_latency",
                             entry.get("sync_latency"))


def fleet_gate(report: dict, max_skew: float = MAX_LOAD_SKEW) -> list[str]:
    """CI gate over a validated report: the violations found (empty = pass).

    Gates: every tenant converged, zero cross-tenant namespace
    collisions, fleet p99 sync latency finite, and per-CSP byte and op
    load skew below ``max_skew``.
    """
    violations: list[str] = []
    fleet = report["fleet"]
    total = len(report["tenants"])
    if fleet["converged_tenants"] != total:
        violations.append(
            f"only {fleet['converged_tenants']}/{total} tenants converged"
        )
    if fleet["namespace_collisions"] != 0:
        violations.append(
            f"{fleet['namespace_collisions']} cross-tenant namespace collisions"
        )
    p99 = fleet["sync_latency"]["p99"]
    if not math.isfinite(p99):
        violations.append(f"fleet p99 sync latency is not finite: {p99!r}")
    for key in ("byte_skew", "op_skew"):
        skew = fleet[key]
        if not math.isfinite(skew):
            violations.append(f"fleet {key} is not finite: {skew!r}")
        elif skew >= max_skew:
            violations.append(
                f"fleet {key} {skew:.3f} >= {max_skew} (unbalanced placement)"
            )
    return violations


def write_fleet_report(report: dict, path) -> None:
    """Validate then write one fleet report as pretty-printed JSON.

    ``sort_keys`` keeps the byte layout a pure function of the content,
    which is what lets the smoke test compare two runs' files directly.
    """
    validate_fleet_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_fleet_report(path) -> dict:
    """Read and validate one fleet report."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    validate_fleet_report(report)
    return report
