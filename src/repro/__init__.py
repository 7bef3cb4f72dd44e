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
here.  The implementation modules (``repro.core.client`` ...) remain
importable for advanced use.

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

from repro.core.async_client import AsyncCyrusClient
from repro.core.client import CyrusClient, FileEntry
from repro.core.cloud import CSPStatus, CyrusCloud
from repro.core.config import CyrusConfig
from repro.core.downloader import DownloadReport
from repro.core.retry import ShareRetryLoop
from repro.core.sync import SyncReport
from repro.core.transfer import (
    DirectEngine,
    OpResult,
    SimulatedEngine,
    TransferOp,
    TransferReceiver,
)
from repro.core.uploader import UploadReport
from repro.csp.base import BytesLike, CloudProvider, ObjectInfo
from repro.csp.resilient import HealthRegistry, ResilientProvider, RetryPolicy
from repro.errors import (
    Attempt,
    ChunkingError,
    CircuitOpenError,
    CodingError,
    ConfigurationError,
    ConflictError,
    CSPAuthError,
    CSPError,
    CSPQuotaExceededError,
    CSPTimeoutError,
    CSPUnavailableError,
    CyrusError,
    InsufficientSharesError,
    MetadataError,
    ObjectNotFoundError,
    ReliabilityError,
    SelectionError,
    ShareGatherError,
    ShareIntegrityError,
    TenantQuotaError,
    TransferError,
    is_retryable,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.fleet import (
    FleetHarness,
    FleetQuota,
    FleetResult,
    FleetTopology,
    TenantResult,
    fleet_gate,
    run_fleet,
)
from repro.workloads.fleet import FleetWorkloadSpec, generate_fleet_workload

__version__ = "1.2.0"

__all__ = [
    # clients & configuration
    "CyrusClient",
    "AsyncCyrusClient",
    "CyrusConfig",
    "CyrusCloud",
    "CSPStatus",
    "FileEntry",
    # reports
    "UploadReport",
    "DownloadReport",
    "SyncReport",
    # provider protocol
    "CloudProvider",
    "BytesLike",
    "ObjectInfo",
    # engines & retry
    "DirectEngine",
    "SimulatedEngine",
    "TransferOp",
    "OpResult",
    "TransferReceiver",
    "ShareRetryLoop",
    # resilience
    "HealthRegistry",
    "ResilientProvider",
    "RetryPolicy",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultyProvider",
    # fleet simulation
    "FleetHarness",
    "FleetQuota",
    "FleetResult",
    "FleetTopology",
    "FleetWorkloadSpec",
    "TenantResult",
    "fleet_gate",
    "generate_fleet_workload",
    "run_fleet",
    # errors
    "CyrusError",
    "ConfigurationError",
    "CodingError",
    "InsufficientSharesError",
    "ShareIntegrityError",
    "ChunkingError",
    "CSPError",
    "CSPUnavailableError",
    "CSPTimeoutError",
    "CircuitOpenError",
    "CSPAuthError",
    "CSPQuotaExceededError",
    "ObjectNotFoundError",
    "MetadataError",
    "TenantQuotaError",
    "ConflictError",
    "SelectionError",
    "ReliabilityError",
    "TransferError",
    "ShareGatherError",
    "Attempt",
    "is_retryable",
    "__version__",
]
