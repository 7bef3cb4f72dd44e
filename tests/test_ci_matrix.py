"""The CI seed matrices list exactly the suites that read the seed.

A suite with a function that takes the ``fault_seed`` fixture is a different adversary
under each ``--fault-seed``, so it belongs in a seed matrix; a suite
that ignores the seed only re-runs the same checks there (it runs once
in the tier-1 job).  The workflow is read as text: a matrix job is a
job block that declares ``fault-seed:``, and its suites are the
``tests/*.py`` paths its non-comment lines name.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _jobs(text: str) -> dict[str, str]:
    """Job name -> its block of the workflow."""
    body = text[text.index("\njobs:\n"):]
    parts = re.split(r"\n  ([A-Za-z0-9_-]+):\n", body)
    return dict(zip(parts[1::2], parts[2::2]))


def _matrix_suites() -> set[str]:
    return {
        path
        for block in _jobs(WORKFLOW.read_text()).values()
        if re.search(r"^\s+fault-seed:", block, re.M)
        for path in re.findall(r"tests/test_\w+\.py",
                               re.sub(r"(?m)^\s*#.*$", "", block))
    }


def _seeded_suites() -> set[str]:
    return {
        f"tests/{path.name}"
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        if re.search(r"\bdef \w+\([^)]*\bfault_seed\b", path.read_text())
    }


def test_matrix_jobs_are_found():
    assert {"chaos-matrix", "byzantine-chaos", "metadata-byzantine"} <= {
        name for name, block in _jobs(WORKFLOW.read_text()).items()
        if "fault-seed:" in block
    }


def test_every_seeded_suite_is_in_a_matrix():
    assert _seeded_suites() - _matrix_suites() == set()


def test_every_matrix_suite_reads_the_seed():
    assert _matrix_suites() - _seeded_suites() == set()
