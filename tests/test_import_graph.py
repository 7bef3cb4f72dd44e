"""What a cold ``cyrus`` process imports, pinned as a count.

``cyrus`` starts a fresh interpreter for every command, so what
``import repro.cli`` loads is paid on every command before its first
operation.  Each package ``__init__`` is a lazy façade: a fresh
interpreter holds only the modules its import statement actually
reaches.  The counts and the denied modules are pinned in
``tests/data/op_budget.json`` ``import_graph``; a change is a reviewed
diff there.  ``python -X importtime -c "import repro.cli"`` shows where
a changed count comes from.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BUDGET = json.loads(
    (Path(__file__).parent / "data" / "op_budget.json").read_text()
)["import_graph"]

_PROBE = """
import json
import sys
import {target}
print(json.dumps({{
    "repro": sorted(name for name, module in sys.modules.items()
                    if (name == "repro" or name.startswith("repro."))
                    and getattr(module, "__file__", None)),
    "all": sorted(sys.modules),
}}))
"""


def _loaded(target: str) -> tuple[list[str], list[str]]:
    """(file-backed repro modules, every module) after ``import target``
    in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(target=target)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    loaded = json.loads(done.stdout)
    return loaded["repro"], loaded["all"]


@pytest.mark.parametrize("target", ["repro", "repro.core.client",
                                    "repro.cli"])
def test_cold_import_loads_its_pinned_module_count(target):
    repro, everything = _loaded(target)
    assert len(repro) == BUDGET[target], "\n".join(repro)
    denied = [
        name for name in everything
        if any(name == d or name.startswith(d + ".")
               for d in BUDGET["denied"])
    ]
    assert denied == []
