"""The multi-tenant fleet simulation harness.

Runs N tenants — each a full :class:`repro.core.CyrusClient` with its
own key, chunk pipeline and metadata plane — against *shared*
infrastructure: one :class:`SimClock`, one set of CSP accounts (in-memory
stores, behind netsim links or none), and the same consistent-hash
rings.  Per layer:

* **providers** — every tenant sees the shared accounts through
  :class:`repro.csp.NamespacedCSP`, so object spaces are disjoint by
  construction while links, quotas and failures stay shared;
* **metadata** — each tenant's :class:`repro.metadata.MetadataStore`
  consistent-hashes its files across the metadata CSP groups (route
  prefix = tenant id, so tenants spread independently);
* **admission** — one :class:`FleetQuota` splits the fleet's capacity
  equally; ``CyrusClient.put`` reserves against it before any byte
  moves;
* **workload** — seeded Zipf/Poisson plans from
  :func:`repro.workloads.generate_fleet_workload`, replayed in global
  arrival order on the shared clock.

Determinism contract: with a fixed (spec, topology, seed) the replay
order, every transferred byte, every latency sample, the final
namespace contents and the emitted ``FLEET_report.json`` are all
bit-identical across runs — there is no wall-clock or global-RNG input
anywhere in the pipeline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine, SimulatedEngine
from repro.csp.memory import InMemoryCSP
from repro.csp.namespaced import (
    NamespacedCSP,
    namespace_prefix,
    owning_prefix,
)
from repro.errors import CyrusError
from repro.fleet.quota import FleetQuota
from repro.fleet.report import FLEET_SCHEMA
from repro.metadata.store import MetadataStore
from repro.netsim.link import Link
from repro.obs import (
    Observability,
    latency_summary,
    load_skew,
    merge_snapshots,
    per_csp_bytes,
    per_csp_ops,
)
from repro.util.clock import SimClock
from repro.util.hashing import sha1_hex
from repro.workloads.fleet import (
    FleetWorkload,
    FleetWorkloadSpec,
    generate_fleet_workload,
)


@dataclass(frozen=True)
class FleetTopology:
    """The shared substrate a fleet runs on.

    Attributes:
        csps: Number of shared CSP accounts.
        meta_groups: Metadata shard groups; ``csps`` must split evenly
            into groups of at least ``meta_t`` providers each.
        engine: ``"netsim"`` (flow-simulated links, real latencies) or
            ``"memory"`` (plain dict stores, zero-latency — the tier-1
            smoke substrate).
        link_rate: Per-CSP link rate in bytes/s (netsim only).
        rtt_s: Per-CSP link RTT (netsim only).
        client_up / client_down: Client access-link rates in bytes/s.
        t / n: Data-plane coding parameters per tenant.
        meta_t: Metadata privacy threshold per group.
        base_key: Fleet key prefix; tenant keys are ``base_key:tenant``.
    """

    csps: int = 6
    meta_groups: int = 2
    engine: str = "netsim"
    link_rate: float = 4e6
    rtt_s: float = 0.02
    client_up: float = 12.5e6
    client_down: float = 12.5e6
    t: int = 2
    n: int = 3
    meta_t: int = 2
    base_key: str = "fleet-key"

    def __post_init__(self) -> None:
        if self.engine not in ("netsim", "memory"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.meta_groups < 1:
            raise ValueError("need at least one metadata group")
        if self.csps % self.meta_groups != 0:
            raise ValueError(
                f"{self.csps} CSPs do not split evenly into "
                f"{self.meta_groups} metadata groups"
            )
        if self.csps // self.meta_groups < self.meta_t:
            raise ValueError(
                f"metadata groups of {self.csps // self.meta_groups} "
                f"cannot meet meta_t={self.meta_t}"
            )
        if self.csps < self.n:
            raise ValueError(f"need at least n={self.n} CSPs, got {self.csps}")

    def csp_ids(self) -> list[str]:
        return [f"csp{i:02d}" for i in range(self.csps)]

    def group_ids(self) -> list[list[str]]:
        ids = self.csp_ids()
        size = self.csps // self.meta_groups
        return [ids[g * size:(g + 1) * size] for g in range(self.meta_groups)]


@dataclass
class TenantResult:
    """One tenant's outcome."""

    tenant_id: str
    converged: bool
    files: int
    stored_bytes: int
    namespace_digest: str
    sync_samples: list[float] = field(repr=False, default_factory=list)
    op_samples: list[float] = field(repr=False, default_factory=list)
    errors: list[str] = field(default_factory=list)


@dataclass
class FleetResult:
    """A finished fleet run: the report plus per-tenant details."""

    report: dict
    tenants: dict[str, TenantResult]
    workload: FleetWorkload


class FleetHarness:
    """Builds the shared substrate and replays a fleet workload."""

    def __init__(self, spec: FleetWorkloadSpec, topology: FleetTopology,
                 seed: int = 0):
        self.spec = spec
        self.topology = topology
        self.seed = seed
        self.clock = SimClock()
        self.raw_csps: dict[str, InMemoryCSP] = {
            csp_id: InMemoryCSP(csp_id) for csp_id in topology.csp_ids()
        }
        self.links: dict[str, Link] = {}
        if topology.engine == "netsim":
            self.links = {
                csp_id: Link.symmetric(csp_id, topology.link_rate,
                                       rtt_s=topology.rtt_s)
                for csp_id in topology.csp_ids()
            }

    # -- per-tenant construction ------------------------------------------

    def _build_client(self, tenant_id: str, quota: FleetQuota) -> CyrusClient:
        topo = self.topology
        wrapped = {
            csp_id: NamespacedCSP(raw, tenant_id)
            for csp_id, raw in self.raw_csps.items()
        }
        providers = [wrapped[c] for c in topo.csp_ids()]
        obs = Observability(clock=self.clock)
        if topo.engine == "netsim":
            engine = SimulatedEngine(
                {p.csp_id: p for p in providers}, self.links, self.clock,
                client_up=topo.client_up, client_down=topo.client_down,
                obs=obs,
            )
        else:
            engine = DirectEngine(
                {p.csp_id: p for p in providers}, clock=self.clock, obs=obs,
            )
        config = CyrusConfig(
            key=f"{topo.base_key}:{tenant_id}",
            t=topo.t, n=topo.n, meta_t=topo.meta_t,
        )
        groups = [[wrapped[c] for c in group] for group in topo.group_ids()]

        def grouped_store(client: CyrusClient) -> MetadataStore:
            return MetadataStore(
                groups, key=client.config.key, t=client.config.meta_t,
                health=client.health, metrics=client.obs.metrics,
                ledger=client.debt_ledger, clock=client.engine.clock,
                route_prefix=f"{tenant_id}/",
            )

        return CyrusClient.create(
            providers, config, client_id=tenant_id, engine=engine,
            admission=quota, store_factory=grouped_store,
        )

    # -- replay ------------------------------------------------------------

    def run(self) -> FleetResult:
        workload = generate_fleet_workload(self.spec, seed=self.seed)
        tenant_order = [plan.tenant_id for plan in workload.plans]
        quota = FleetQuota(
            tenant_order,
            per_tenant=(
                {tid: self.spec.quota_bytes for tid in tenant_order}
                if self.spec.quota_bytes is not None else None
            ),
            fleet_capacity=(
                None if self.spec.quota_bytes is not None
                else self.spec.tenants * 2 ** 62  # effectively unbounded
            ),
        )
        clients = {
            tid: self._build_client(tid, quota) for tid in tenant_order
        }
        results = {
            tid: TenantResult(tenant_id=tid, converged=False, files=0,
                              stored_bytes=0, namespace_digest="")
            for tid in tenant_order
        }
        # -- replay the merged schedule on the shared clock ---------------
        # sync latency = the paper's Figure 19 notion: simulated time
        # from a file change until it is fully dispersed and its
        # metadata published (a put, including its pre-op metadata
        # sync).  op latency covers every operation end-to-end.
        for tenant_id, op in workload.merged_ops():
            client = clients[tenant_id]
            res = results[tenant_id]
            now = self.clock.now()
            if op.at > now:
                self.clock.advance_to(op.at)
            t0 = self.clock.now()
            try:
                client.sync()
                if op.action == "put":
                    client.put(op.name, op.content(), sync_first=False)
                    res.sync_samples.append(self.clock.now() - t0)
                else:
                    client.get(op.name, sync_first=False)
            except CyrusError as exc:
                res.errors.append(
                    f"{op.action} {op.name!r}: {type(exc).__name__}: {exc}"
                )
                continue
            res.op_samples.append(self.clock.now() - t0)
        # -- convergence: one final sync per tenant, then audit ------------
        for tenant_id in tenant_order:
            client = clients[tenant_id]
            res = results[tenant_id]
            plan = workload.plan_for(tenant_id)
            try:
                client.sync()
            except CyrusError as exc:
                res.errors.append(f"final sync: {type(exc).__name__}: {exc}")
            expected = plan.expected_files()
            entries = {
                e.name: e for e in client.list_files(sync_first=False)
            }
            converged = set(entries) == set(expected) and not res.errors
            if converged:
                for name, op in expected.items():
                    node = entries[name].node
                    if (node.size != op.size
                            or node.file_id != client.content_id(
                                op.content())):
                        converged = False
                        res.errors.append(f"{name!r}: wrong head version")
                        break
            res.converged = converged
            res.files = len(entries)
            res.stored_bytes = sum(e.size for e in entries.values())
            res.namespace_digest = self._namespace_digest(tenant_id)
        collisions = self._namespace_collisions(tenant_order)
        report = self._build_report(workload, clients, results, collisions)
        for client in clients.values():
            client.close()
        return FleetResult(report=report, tenants=results, workload=workload)

    # -- auditing ----------------------------------------------------------

    def _namespace_digest(self, tenant_id: str) -> str:
        """SHA-1 over the tenant's raw objects across all providers.

        Hashes (csp, qualified name, content digest) triples in sorted
        order — two runs converge to identical namespaces iff these
        digests match.
        """
        prefix = namespace_prefix(tenant_id)
        acc = hashlib.sha1()
        for csp_id in sorted(self.raw_csps):
            raw = self.raw_csps[csp_id]
            for info in sorted(raw.list(prefix=prefix), key=lambda i: i.name):
                blob = raw.download(info.name)
                acc.update(
                    f"{csp_id}|{info.name}|{sha1_hex(blob)}\n".encode()
                )
        return acc.hexdigest()

    def _namespace_collisions(self, tenant_order: list[str]) -> int:
        """Objects not attributable to exactly one tenant namespace.

        A name can match at most one prefix (``owning_prefix``), so one
        set lookup per object decides it.
        """
        owned = {namespace_prefix(tid) for tid in tenant_order}
        return sum(
            owning_prefix(info.name) not in owned
            for raw in self.raw_csps.values()
            for info in raw.list()
        )

    # -- reporting ---------------------------------------------------------

    def _build_report(
        self,
        workload: FleetWorkload,
        clients: dict[str, CyrusClient],
        results: dict[str, TenantResult],
        collisions: int,
    ) -> dict:
        merged = merge_snapshots(
            [clients[tid].obs.snapshot() for tid in sorted(clients)]
        )
        bytes_by_csp = per_csp_bytes(merged)
        ops_by_csp = per_csp_ops(merged)
        all_sync = [s for r in results.values() for s in r.sync_samples]
        all_ops = [s for r in results.values() for s in r.op_samples]
        topo = self.topology
        return {
            "schema": FLEET_SCHEMA,
            "params": {
                "tenants": self.spec.tenants,
                "seed": self.seed,
                "engine": topo.engine,
                "csps": topo.csps,
                "meta_groups": topo.meta_groups,
                "t": topo.t,
                "n": topo.n,
                "meta_t": topo.meta_t,
                "files_per_tenant": self.spec.files_per_tenant,
                "ops_per_tenant": self.spec.ops_per_tenant,
                "zipf_s": self.spec.zipf_s,
                "arrival_rate": self.spec.arrival_rate,
                "quota_bytes": self.spec.quota_bytes,
            },
            "workload_fingerprint": workload.fingerprint(),
            "fleet": {
                "sync_latency": latency_summary(all_sync),
                "op_latency": latency_summary(all_ops),
                "per_csp_bytes": {k: v for k, v in sorted(bytes_by_csp.items())},
                "per_csp_ops": {k: v for k, v in sorted(ops_by_csp.items())},
                "byte_skew": load_skew(bytes_by_csp),
                "op_skew": load_skew(ops_by_csp),
                "converged_tenants": sum(
                    1 for r in results.values() if r.converged
                ),
                "namespace_collisions": collisions,
                "sim_time": self.clock.now(),
            },
            "tenants": {
                tid: {
                    "converged": r.converged,
                    "files": r.files,
                    "stored_bytes": r.stored_bytes,
                    "namespace_digest": r.namespace_digest,
                    "sync_latency": latency_summary(r.sync_samples),
                    "errors": list(r.errors),
                }
                for tid, r in sorted(results.items())
            },
        }


def run_fleet(
    spec: FleetWorkloadSpec,
    topology: FleetTopology | None = None,
    seed: int = 0,
) -> FleetResult:
    """Build a harness, replay the workload, return the result."""
    return FleetHarness(
        spec, topology if topology is not None else FleetTopology(),
        seed=seed,
    ).run()
