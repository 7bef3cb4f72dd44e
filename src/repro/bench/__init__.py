"""Benchmark harness: testbed construction, runners, and reporting."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.bench.harness": ("summarize_durations",),
    "repro.bench.testbed": ("build_paper_testbed", "build_environment"),
})
