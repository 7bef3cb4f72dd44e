"""SHA-1 consistent hash ring.

CYRUS "uses consistent hashing to select the n CSPs at which to store
shares of each chunk, allowing us to balance the amount of data stored
at different CSPs and minimize the necessary share reallocation when
CSPs are added or deleted" (Section 5.3).  A chunk id is hashed to a
point on the ring; the first ``n`` *distinct* CSPs encountered clockwise
hold its shares.

Virtual nodes smooth the load distribution: each CSP is hashed onto the
ring ``replicas`` times.  Weighted membership scales the replica count,
letting callers bias placement toward CSPs with more free quota.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import lru_cache

from repro.errors import SelectionError


def _ring_hash(key: str) -> int:
    """Position on the ring: first 8 bytes of SHA-1 (paper uses SHA-1)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


@lru_cache(maxsize=1024)
def _virtual_points(csp_id: str, count: int) -> tuple[int, ...]:
    """Positions of a CSP's first ``count`` virtual nodes.

    They depend on nothing but the CSP id, so every ring in the process
    (one per client: a fleet builds hundreds over the same CSP ids)
    shares one computation.
    """
    return tuple(_ring_hash(f"{csp_id}#{i}") for i in range(count))


class ConsistentHashRing:
    """A consistent hash ring over CSP identifiers.

    Args:
        replicas: Virtual nodes per unit of weight.
    """

    def __init__(self, replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: list[str] = []
        self._weights: dict[str, int] = {}

    # -- membership -------------------------------------------------------

    def add(self, csp_id: str, weight: int = 1) -> None:
        """Add a CSP with the given integer weight (>= 1)."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        if csp_id in self._weights:
            raise ValueError(f"CSP {csp_id!r} already on the ring")
        self._weights[csp_id] = weight
        for point in _virtual_points(csp_id, self.replicas * weight):
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, csp_id)

    def remove(self, csp_id: str) -> None:
        """Remove a CSP and all its virtual nodes."""
        if csp_id not in self._weights:
            raise KeyError(f"CSP {csp_id!r} not on the ring")
        del self._weights[csp_id]
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != csp_id]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    @property
    def members(self) -> list[str]:
        """CSPs currently on the ring (sorted)."""
        return sorted(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, csp_id: str) -> bool:
        return csp_id in self._weights

    # -- lookup -------------------------------------------------------------

    def successors(self, key: str, count: int) -> list[str]:
        """The first ``count`` distinct CSPs clockwise from hash(key).

        This is the paper's uplink selection: the ``n`` CSPs that store a
        chunk's shares.  Raises :class:`SelectionError` when fewer than
        ``count`` CSPs are on the ring.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if count > len(self._weights):
            raise SelectionError(
                f"need {count} CSPs but only {len(self._weights)} on the ring"
            )
        start = bisect.bisect(self._points, _ring_hash(key))
        chosen: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._points)):
            owner = self._owners[(start + step) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                chosen.append(owner)
                if len(chosen) == count:
                    return chosen
        raise AssertionError("unreachable: ring smaller than member count")

    def owner(self, key: str) -> str:
        """The single CSP owning ``key`` (first successor)."""
        return self.successors(key, 1)[0]
