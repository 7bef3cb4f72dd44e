"""CSP platform-independence inference (paper Section 4.1).

CYRUS avoids storing two shares of one chunk at CSPs that share physical
infrastructure (e.g. Dropbox on Amazon servers).  It infers sharing by
tracerouting to every CSP, building the spanning tree of the union of
routes, and hierarchically clustering CSPs by cutting the tree at a
level (Figure 3).  Real traceroutes are unavailable here, so
:mod:`repro.topology.routes` synthesises hop paths from a declared
platform map — the clustering algorithm itself consumes only hop lists,
exactly as in the paper.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.topology.cluster": ("cluster_at_level", "cluster_csps",
                               "render_tree"),
    "repro.topology.routes": ("Route", "synthesize_routes"),
    "repro.topology.tree": ("CLIENT_NODE", "route_tree"),
})
