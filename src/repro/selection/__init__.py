"""Downlink CSP selection (paper Section 4.3, Algorithm 1).

To download a file, the client must fetch ``t`` of the ``n`` shares of
every chunk; which CSPs it fetches from determines the parallel
completion time.  This package defines the optimisation problem
(:mod:`problem`), the exact bandwidth sub-problem
(:mod:`bandwidth`), the LP relaxation (:mod:`relaxation`), the paper's
online convexify-fix-round algorithm (:class:`CyrusSelector`), and the
random / round-robin / greedy / brute-force baselines the evaluation
compares against.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.selection.bandwidth": ("optimal_bandwidth_allocation",),
    "repro.selection.baselines": ("BruteForceSelector", "GreedySelector",
                                  "RandomSelector", "RoundRobinSelector"),
    "repro.selection.cyrus": ("CyrusSelector",),
    "repro.selection.problem": ("ChunkDownload", "DownloadProblem",
                                "SelectionPlan", "evaluate_plan",
                                "restrict_to_live"),
})
