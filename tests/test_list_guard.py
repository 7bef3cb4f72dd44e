"""No product code lists a provider behind the engine's back, and no
code asks a provider anything beyond the five primitives.

Every listing a client makes is a ``LIST`` engine op
(:func:`repro.core.transfer.list_objects`), so breakers, health,
metrics and netsim see it.  This walk over ``src/repro`` fails on any
``.list(`` call outside the places that may call a provider directly.

A provider is up exactly when its primitive calls succeed: a second
walk fails on any ``is_up`` in ``src/repro`` (a definition, an
attribute access or a ``getattr`` string), the side question the
simulated engine once probed.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages whose every module may call ``.list(``: the providers and
#: their wrappers, and the DepSky lock figure support.
ALLOWED_PACKAGES = ("csp/", "depsky/")

#: Modules that may call ``.list(``; None allows the whole module, a
#: set only those functions in it.
ALLOWED_MODULES = {
    "core/transfer.py": None,  # the engine applies LIST ops
    "faults/provider.py": None,  # a provider wrapper
    # the audit reads ground truth beneath every tenant's namespace
    "fleet/harness.py": {"_namespace_digest", "_namespace_collisions"},
}


def list_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function or None) of each ``.list(`` call."""
    found: list[tuple[int, str | None]] = []

    def walk(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "list"):
                found.append((child.lineno, function))
            walk(child, function)

    walk(ast.parse(source), None)
    return found


def bypasses(relative: str, source: str) -> list[str]:
    """The disallowed ``.list(`` calls of one module under ``src/repro``."""
    if relative.startswith(ALLOWED_PACKAGES):
        return []
    allowed = ALLOWED_MODULES.get(relative, set())
    if allowed is None:
        return []
    return [f"{relative}:{line}" for line, function in list_calls(source)
            if function not in allowed]


def test_no_listing_outside_the_engine():
    offenders = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        for hit in bypasses(path.relative_to(SRC).as_posix(),
                            path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], (
        "list providers through repro.core.transfer.list_objects: "
        + ", ".join(offenders))


def test_the_walk_finds_a_direct_listing():
    source = (
        "def sync(provider):\n"
        "    return provider.list(prefix='md-')\n"
        "def _namespace_digest(raw):\n"
        "    return raw.list()\n"
    )
    assert bypasses("core/sync.py", source) == [
        "core/sync.py:2", "core/sync.py:4"]
    assert bypasses("fleet/harness.py", source) == ["fleet/harness.py:2"]
    assert bypasses("csp/memory.py", source) == []


def is_up_uses(source: str) -> list[int]:
    """Lines that define, access or name ``is_up``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "is_up")
        or (isinstance(node, ast.Attribute) and node.attr == "is_up")
        or (isinstance(node, ast.Constant) and node.value == "is_up")
    )


def test_no_provider_question_beyond_the_five_primitives():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in is_up_uses(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], (
        "a provider is up when its primitive calls succeed; script "
        "outages with repro.faults: " + ", ".join(offenders))


def test_the_walk_finds_every_is_up():
    source = (
        "class P:\n"
        "    def is_up(self, t):\n"
        "        return True\n"
        "def probe(p, t):\n"
        "    return p.is_up(t)\n"
        "def duck(p):\n"
        "    return getattr(p, 'is_up', None)\n"
        "def fine(schedule):\n"
        "    return schedule.is_upper\n"
    )
    assert is_up_uses(source) == [2, 5, 7]
