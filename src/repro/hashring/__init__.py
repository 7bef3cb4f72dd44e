"""Consistent hashing for uplink CSP selection (paper Sections 4.3, 5.3)."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.hashring.ring": ("ConsistentHashRing",),
})
