"""Vendor REST connectors (paper Section 6, Table 2).

The prototype's seventh component: "cloud connectors for popular
commercial CSPs ... This task involves creating a specific REST URL
with proper parameters and content."  This package reproduces that
layer against in-process emulations of the vendor APIs:

* :mod:`repro.csp.rest.wire` — minimal HTTP-shaped request/response
  types;
* :mod:`repro.csp.rest.dialects` — vendor dialects with Table 2's real
  heterogeneity: Dropbox-style (JSON, path-keyed, overwrite-on-upload,
  OAuth 2.0 bearer), Drive-style (JSON, opaque file ids,
  duplicate-on-upload, OAuth 2.0), and S3-style (XML, key-keyed,
  signature auth);
* :mod:`repro.csp.rest.server` — an in-process server hosting one
  dialect over an object store, enforcing auth, quotas and status
  codes;
* :mod:`repro.csp.rest.connector` — the CYRUS-side connector mapping
  the five primitives onto each dialect and vendor errors onto the
  library's exception hierarchy.

CYRUS code above the :class:`repro.csp.base.CloudProvider` interface
runs unmodified over any mix of these — the design claim the tests pin
down.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.csp.rest.connector": ("RestConnectorCSP",),
    "repro.csp.rest.dialects": ("DriveStyleDialect", "DropboxStyleDialect",
                                "S3StyleDialect"),
    "repro.csp.rest.server": ("InProcessRestServer",),
})
