"""Canonical JSON serialization.

A node id is the SHA-1 of its lineage fields in this form
(:func:`repro.metadata.node.node_id_of`), so the bytes must be
canonical: sorted keys, no insignificant whitespace, UTF-8.  Two
clients serialising the same values must produce identical bytes.
(The node itself is stored in the binary form of
:mod:`repro.metadata.codec`.)
"""

from __future__ import annotations

import json
from typing import Any


def canonical_dumps(obj: Any) -> bytes:
    """Serialize to canonical JSON bytes (sorted keys, compact separators)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def canonical_loads(data: bytes) -> Any:
    """Inverse of :func:`canonical_dumps`."""
    return json.loads(data.decode("utf-8"))
