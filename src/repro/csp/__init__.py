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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.csp.account": ("AuthToken", "Credentials"),
    "repro.csp.base": ("BytesLike", "CloudProvider", "ObjectInfo"),
    "repro.csp.catalog": ("CSPSpec", "TABLE2", "amazon_hosted",
                          "spec_by_name"),
    "repro.csp.localfs": ("LocalDirectoryCSP",),
    "repro.csp.memory": ("InMemoryCSP",),
    "repro.csp.namespaced": ("NamespacedCSP", "namespace_prefix"),
    "repro.csp.resilient": ("BreakerState", "CircuitBreaker", "CSPHealth",
                            "HealthEvent", "HealthRegistry", "RetryPolicy"),
})
