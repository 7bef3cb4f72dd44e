"""The stable public API façade.

Everything in ``repro.__all__`` (and ``repro.csp.__all__``) resolves to
a real object — the façade never advertises a name it can't serve —
and the façade's names are the canonical implementation objects.

Every package ``__init__`` that exports names is a lazy façade whose
exports are pinned, with their canonical modules, in
``tests/data/facade_exports.json``: dropping or moving a name is a
reviewed diff there.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import repro
import repro.csp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
FACADES = json.loads(
    (Path(__file__).parent / "data" / "facade_exports.json").read_text())


# ---------------------------------------------------------------------------
# façade completeness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(repro.__all__))
def test_facade_all_names_resolve(name):
    assert getattr(repro, name) is not None


@pytest.mark.parametrize("name", sorted(repro.csp.__all__))
def test_csp_package_all_names_resolve(name):
    assert getattr(repro.csp, name) is not None


def test_facade_exports_match_canonical_modules():
    from repro.core.client import CyrusClient
    from repro.core.async_client import AsyncCyrusClient
    from repro.core.config import CyrusConfig

    assert repro.CyrusClient is CyrusClient
    assert repro.AsyncCyrusClient is AsyncCyrusClient
    assert repro.CyrusConfig is CyrusConfig


# ---------------------------------------------------------------------------
# every package façade is lazy and serves exactly its pinned names
# ---------------------------------------------------------------------------

def _exports(package: str) -> dict[str, str]:
    """name -> canonical module, as pinned."""
    return {name: module for module, names in FACADES[package].items()
            for name in names}


def test_every_exporting_package_is_pinned():
    packages = {
        ".".join(("repro",) + init.parent.relative_to(SRC).parts)
        for init in SRC.rglob("__init__.py")
    }
    exporting = {name for name in packages
                 if hasattr(importlib.import_module(name), "__all__")}
    assert exporting == set(FACADES)


@pytest.mark.parametrize("package", sorted(FACADES))
def test_facade_names_are_canonical(package):
    pkg = importlib.import_module(package)
    exports = _exports(package)
    assert sorted(pkg.__all__) == sorted(exports)
    for name, module in exports.items():
        assert getattr(pkg, name) is getattr(
            importlib.import_module(module), name), name
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", sorted(FACADES))
def test_facade_star_import_binds_all(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(_exports(package))


@pytest.mark.parametrize("package", sorted(FACADES))
def test_facade_unknown_name_names_package_and_attribute(package):
    pkg = importlib.import_module(package)
    message = f"module {package!r} has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=re.escape(message)):
        pkg.no_such_name


@pytest.mark.parametrize("package", sorted(FACADES))
def test_facade_hook_runs_once_per_name(package, monkeypatch):
    pkg = importlib.import_module(package)
    hook = vars(pkg)["__getattr__"]
    calls: list[str] = []

    def counting(name):
        calls.append(name)
        return hook(name)

    monkeypatch.setattr(pkg, "__getattr__", counting)
    lazy = sorted(name for name, module in _exports(package).items()
                  if module != package)
    for name in lazy:
        monkeypatch.delitem(vars(pkg), name, raising=False)
        assert getattr(pkg, name) is getattr(pkg, name)
    assert calls == lazy


# ---------------------------------------------------------------------------
# one version number
# ---------------------------------------------------------------------------

def test_version_has_one_source():
    """pyproject reads ``repro.__version__``, a literal setuptools can
    take from the source without running the package."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"}
    literals = [
        node.value.value
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [repro.__version__]
