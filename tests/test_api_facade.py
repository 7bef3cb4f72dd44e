"""The stable public API façade.

Everything in ``repro.__all__`` (and ``repro.csp.__all__``) resolves to
a real object — the façade never advertises a name it can't serve —
and the façade's names are the canonical implementation objects.
"""

from __future__ import annotations

import pytest

import repro
import repro.csp


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
