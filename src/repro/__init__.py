"""CYRUS: client-defined, privacy-protected, reliable cloud storage.

A full reproduction of *CYRUS: Towards Client-Defined Cloud Storage*
(Chung, Hong, Joe-Wong, Ha, Chiang — EuroSys 2015): a client-side
system that scatters erasure-coded file shares across multiple
autonomous cloud storage providers so that no single provider can read
user data, the data survives provider outages, and parallel downloads
from optimally chosen providers minimise latency.

This module is the **stable public API façade**: everything a caller
needs — the sync and async clients, configuration, the provider
protocol, the report types and the error hierarchy — imports from
here.  The façade is lazy: ``import repro`` loads this module alone,
and each name's implementation module (``repro.core.client`` ...) is
imported on the name's first access.  The implementation modules
remain importable for advanced use.

Quickstart (sync)::

    from repro import CyrusClient, CyrusConfig
    from repro.csp import InMemoryCSP

    csps = [InMemoryCSP(f"csp{i}") for i in range(4)]
    with CyrusClient.create(csps, CyrusConfig(key="secret", t=2, n=3)) as client:
        client.put("hello.txt", b"hello, cyrus")
        print(client.get("hello.txt").data)

Quickstart (async — many concurrent sessions per event loop)::

    from repro import AsyncCyrusClient, CyrusConfig
    from repro.csp import InMemoryCSP

    async def main():
        csps = [InMemoryCSP(f"csp{i}") for i in range(4)]
        config = CyrusConfig(key="secret", t=2, n=3, parallelism=4)
        async with AsyncCyrusClient(csps, config) as session:
            await session.put("hello.txt", b"hello, cyrus")
            print((await session.get("hello.txt")).data)

See DESIGN.md's "Concurrency model and public API" section for the
transfer pool, its admission bounds and the async session facade.
"""

import sys

__version__ = "1.2.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 hooks that make ``package``'s ``__init__`` a lazy façade.

    ``exports`` maps each implementation module to the names the
    package re-exports from it.  A name's module is imported on its
    first access; the value is then bound in the package, so later
    accesses never reach the hook again.  Returns the package's
    ``__all__``, ``__getattr__`` and ``__dir__``.

    Every package ``__init__`` under ``repro`` is such a façade and
    never imports a sibling module itself, so a process pays only for
    the modules it uses (pinned in ``tests/data/op_budget.json``
    ``import_graph``).
    """
    origin = {name: module for module, names in exports.items()
              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        # the builtin, not importlib.import_module: only imports through
        # it show in ``python -X importtime``
        __import__(module)
        value = namespace[name] = getattr(sys.modules[module], name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    # clients & configuration
    "repro.core.client": ("CyrusClient", "FileEntry"),
    "repro.core.async_client": ("AsyncCyrusClient",),
    "repro.core.config": ("CyrusConfig",),
    "repro.core.cloud": ("CyrusCloud", "CSPStatus"),
    # reports
    "repro.core.uploader": ("UploadReport",),
    "repro.core.downloader": ("DownloadReport",),
    "repro.core.sync": ("SyncReport",),
    # provider protocol
    "repro.csp.base": ("CloudProvider", "BytesLike", "ObjectInfo"),
    # engines & retry
    "repro.core.transfer": ("DirectEngine", "SimulatedEngine", "TransferOp",
                            "OpResult", "TransferReceiver"),
    "repro.core.retry": ("ShareRetryLoop",),
    # resilience
    "repro.csp.resilient": ("HealthRegistry", "RetryPolicy"),
    "repro.faults.plan": ("FaultKind", "FaultPlan", "FaultSpec"),
    "repro.faults.provider": ("FaultyProvider",),
    # fleet simulation
    "repro.fleet.harness": ("FleetHarness", "FleetResult", "FleetTopology",
                            "TenantResult", "run_fleet"),
    "repro.fleet.quota": ("FleetQuota",),
    "repro.fleet.report": ("fleet_gate",),
    "repro.workloads.fleet": ("FleetWorkloadSpec", "generate_fleet_workload"),
    # errors
    "repro.errors": (
        "CyrusError", "ConfigurationError", "CodingError",
        "InsufficientSharesError", "ShareIntegrityError", "ChunkingError",
        "CSPError", "CSPUnavailableError", "CSPTimeoutError",
        "CircuitOpenError", "CSPAuthError", "CSPQuotaExceededError",
        "ObjectNotFoundError", "MetadataError", "TenantQuotaError",
        "ConflictError", "SelectionError", "ReliabilityError",
        "TransferError", "ShareGatherError", "Attempt", "is_retryable",
    ),
})
__all__.append("__version__")
