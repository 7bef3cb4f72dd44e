"""Simple storage baselines for Figure 16: full replication and striping."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.baselines.replication": ("FullReplicationClient",),
    "repro.baselines.striping": ("FullStripingClient",),
})
