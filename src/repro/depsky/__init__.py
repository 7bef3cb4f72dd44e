"""DepSky baseline, implemented within CYRUS's substrate (paper §7.3).

DepSky (Bessani et al., EuroSys 2011) is the closest prior
cloud-of-clouds system.  Its protocols differ from CYRUS's exactly where
the paper's comparison probes:

* writes take two round-trips to set lock files plus a random backoff
  before data moves (CYRUS uploads immediately and detects conflicts
  later);
* uploads start a share transfer to *every* CSP and cancel stragglers
  once n finish (CYRUS sends exactly n shares to hash-selected CSPs);
* downloads greedily use the fastest CSPs (CYRUS solves the Section 4.3
  optimisation).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.depsky.client": ("DepSkyClient",),
})
