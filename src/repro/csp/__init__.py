"""Cloud storage provider (CSP) substrate.

CYRUS deliberately uses only the five most basic cloud primitives —
authenticate, list, upload, download, delete (paper Section 3.1) — so
that any provider, down to a bare FTP server, can participate.  This
package defines that interface and two implementations:

* :class:`InMemoryCSP` — a dict-backed store with the vendor
  file-handling quirks Table 2 documents (overwrite-by-name vs
  duplicate-on-upload); every simulated provider is one, its link lives
  with the transfer engine and its failures (outages, auth expiry,
  quota exhaustion) come from :class:`repro.faults.FaultyProvider`;
* :class:`LocalDirectoryCSP` — a directory on disk (a real, persistent
  provider usable outside simulations).

:class:`NamespacedCSP` is a per-tenant view over a shared provider.

:mod:`repro.csp.catalog` reproduces the paper's Table 2: the twenty
commercial CSPs with their protocols, auth schemes, measured RTTs and
derived throughputs.

:mod:`repro.csp.resilient` holds the failure-handling state the
transfer layer applies (Section 5.5): exponential backoff with
deterministic jitter, and a per-CSP circuit breaker feeding the shared
:class:`HealthRegistry`.
"""

from repro.csp.account import AuthToken, Credentials
from repro.csp.base import BytesLike, CloudProvider, ObjectInfo
from repro.csp.catalog import CSPSpec, TABLE2, amazon_hosted, spec_by_name
from repro.csp.localfs import LocalDirectoryCSP
from repro.csp.memory import InMemoryCSP
from repro.csp.namespaced import NamespacedCSP, namespace_prefix
from repro.csp.resilient import (
    BreakerState,
    CircuitBreaker,
    CSPHealth,
    HealthEvent,
    HealthRegistry,
    RetryPolicy,
)

__all__ = [
    "CloudProvider",
    "BytesLike",
    "ObjectInfo",
    "InMemoryCSP",
    "LocalDirectoryCSP",
    "NamespacedCSP",
    "namespace_prefix",
    "AuthToken",
    "Credentials",
    "CSPSpec",
    "TABLE2",
    "amazon_hosted",
    "spec_by_name",
    "BreakerState",
    "CircuitBreaker",
    "CSPHealth",
    "HealthEvent",
    "HealthRegistry",
    "RetryPolicy",
]
