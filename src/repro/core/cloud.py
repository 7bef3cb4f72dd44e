"""The CYRUS cloud: a user's federation of CSP accounts.

Tracks provider membership (active / removed; whether a member is up
is its :class:`repro.csp.resilient.HealthRegistry` breaker's answer),
owns the consistent-hash ring used for uplink placement, honours
platform clusters (at most one share of a chunk per cluster, Section
4.1), and manages the append-only metadata provider slots (metadata is
stored "at a fixed set of m CSPs" — slots never shift, so key-derived
share indices stay valid as the set grows).
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from repro.csp.base import CloudProvider
from repro.errors import ConfigurationError, SelectionError
from repro.hashring import ConsistentHashRing
from repro.util.hashing import sha1_hex


class CSPStatus(enum.Enum):
    """Membership of a CSP account in one CYRUS cloud (Section 5.5).

    A member that is down stays ACTIVE: its breaker says so.
    """

    ACTIVE = "active"
    REMOVED = "removed"  # permanently gone


class CyrusCloud:
    """Provider membership, status, placement, and metadata slots.

    Args:
        providers: Initial CSPs (at least 2 for any privacy).
        clusters: Optional platform clusters from
            :mod:`repro.topology`; CSPs not mentioned form singletons.
        ring_replicas: Virtual nodes per CSP on the placement ring.
    """

    def __init__(
        self,
        providers: Sequence[CloudProvider],
        clusters: Iterable[Iterable[str]] | None = None,
        ring_replicas: int = 64,
    ):
        if not providers:
            raise ConfigurationError("a CYRUS cloud needs at least one CSP")
        ids = [p.csp_id for p in providers]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate CSP ids: {ids}")
        self._providers: dict[str, CloudProvider] = {
            p.csp_id: p for p in providers
        }
        self._status: dict[str, CSPStatus] = {
            p.csp_id: CSPStatus.ACTIVE for p in providers
        }
        self._ring = ConsistentHashRing(replicas=ring_replicas)
        for p in providers:
            self._ring.add(p.csp_id)
        self._cluster_of: dict[str, str] = {}
        if clusters is not None:
            self.set_clusters(clusters)
        # metadata slots: fixed order, append-only
        self._meta_slots: list[str] = sorted(self._providers)
        # quota-full CSPs: no new shares placed there, but still readable
        self._write_full: set[str] = set()

    # -- cluster handling -------------------------------------------------

    def set_clusters(self, clusters: Iterable[Iterable[str]]) -> None:
        """Declare platform clusters (e.g. from route-tree inference)."""
        mapping: dict[str, str] = {}
        for group in clusters:
            members = sorted(group)
            label = sha1_hex(",".join(members).encode("utf-8"))[:8]
            for csp in members:
                mapping[csp] = label
        self._cluster_of = mapping

    def cluster_of(self, csp_id: str) -> str:
        """Cluster label (CSPs without a declared cluster are singletons)."""
        return self._cluster_of.get(csp_id, f"solo-{csp_id}")

    def cluster_count(self) -> int:
        """Distinct clusters among the member CSPs."""
        return len({self.cluster_of(c) for c in self.active_csps()})

    # -- membership -------------------------------------------------------

    def provider(self, csp_id: str) -> CloudProvider:
        prov = self._providers.get(csp_id)
        if prov is None:
            raise KeyError(f"unknown CSP {csp_id!r}")
        return prov

    def status_of(self, csp_id: str) -> CSPStatus:
        status = self._status.get(csp_id)
        if status is None:
            raise KeyError(f"unknown CSP {csp_id!r}")
        return status

    def keeps(self, csp_id: str) -> bool:
        """Is ``csp_id`` known and not REMOVED: may a client touch it?"""
        status = self._status.get(csp_id)
        return status is not None and status is not CSPStatus.REMOVED

    def active_csps(self) -> list[str]:
        """Member CSPs, up or down (:meth:`HealthRegistry.up` says which)."""
        return sorted(
            c for c, s in self._status.items() if s is CSPStatus.ACTIVE
        )

    def add_csp(self, provider: CloudProvider) -> None:
        """Section 5.5 "Adding CSPs": joins ring and metadata slots.

        Already-stored chunk shares are untouched; only new uploads use
        the member.  The new CSP also takes the next metadata slot,
        increasing metadata redundancy.
        """
        csp_id = provider.csp_id
        if csp_id in self._providers and self._status[csp_id] is not CSPStatus.REMOVED:
            raise ConfigurationError(f"CSP {csp_id!r} already present")
        self._providers[csp_id] = provider
        self._status[csp_id] = CSPStatus.ACTIVE
        if csp_id not in self._ring:
            self._ring.add(csp_id)
        if csp_id not in self._meta_slots:
            self._meta_slots.append(csp_id)

    def remove_csp(self, csp_id: str) -> None:
        """Section 5.5 "Removing CSPs": permanent departure."""
        self.status_of(csp_id)  # raises on unknown
        self._status[csp_id] = CSPStatus.REMOVED
        if csp_id in self._ring:
            self._ring.remove(csp_id)

    def mark_write_full(self, csp_id: str) -> None:
        """The account is out of quota: stop placing shares there.

        The CSP is up, so its breaker stays closed and its stored shares
        remain downloadable; it just takes no new ones until the user
        frees space or buys storage (the paper's Section 8 economic
        point: CYRUS users buy capacity where it runs out).
        """
        self.status_of(csp_id)  # raises on unknown
        self._write_full.add(csp_id)
        if csp_id in self._ring:
            self._ring.remove(csp_id)

    def mark_write_available(self, csp_id: str) -> None:
        """Space was freed: resume placing shares at this CSP."""
        if csp_id in self._write_full:
            self._write_full.discard(csp_id)
            if (self.status_of(csp_id) is CSPStatus.ACTIVE
                    and csp_id not in self._ring):
                self._ring.add(csp_id)

    def is_write_full(self, csp_id: str) -> bool:
        return csp_id in self._write_full

    def writable_csps(self) -> list[str]:
        """Member CSPs not quota-full (down ones included)."""
        return [c for c in self.active_csps() if c not in self._write_full]

    # -- placement ----------------------------------------------------------

    def place_chunk(self, chunk_id: str, n: int,
                    respect_clusters: bool = True,
                    avoid: Iterable[str] = ()) -> list[str]:
        """The n CSPs to hold a chunk's shares.

        Consistent hashing on the chunk id (Section 5.3), walking the
        ring and — when cluster placement is on — skipping CSPs whose
        platform cluster already holds a share (Section 4.1).  Only
        writable CSPs (members not quota-full) are candidates.

        ``avoid`` *demotes* candidates without excluding them: providers
        whose breaker is open would cost a guaranteed failed dispatch,
        so they are walked last and used only when too few preferred
        candidates remain — a degraded placement beats refusing the
        upload, and the debt ledger records what is still owed.
        """
        writable = self.writable_csps()
        if len(writable) < n:
            raise SelectionError(
                f"need {n} writable CSPs for placement, have {len(writable)}"
            )
        candidates = self._ring.successors(chunk_id, len(writable))
        shunned = set(avoid)
        if shunned:
            candidates = (
                [c for c in candidates if c not in shunned]
                + [c for c in candidates if c in shunned]
            )
        if not respect_clusters:
            return candidates[:n]
        chosen: list[str] = []
        used_clusters: set[str] = set()
        for csp in candidates:
            cluster = self.cluster_of(csp)
            if cluster in used_clusters:
                continue
            chosen.append(csp)
            used_clusters.add(cluster)
            if len(chosen) == n:
                return chosen
        # not enough independent clusters: fill from remaining candidates
        # (degraded reliability is better than refusing the upload)
        for csp in candidates:
            if csp not in chosen:
                chosen.append(csp)
                if len(chosen) == n:
                    return chosen
        raise SelectionError(
            f"cannot place {n} shares on {len(writable)} CSPs"
        )

    def replacement_csp(
        self,
        chunk_id: str,
        holding: Iterable[str],
        exclude: Iterable[str] = (),
    ) -> str | None:
        """A writable CSP not yet holding the chunk (for lazy migration).

        ``exclude`` removes additional candidates — providers already
        tried this transfer, or ones the health registry reports as
        breaker-open — without changing their cloud status.
        """
        skip = set(holding) | set(exclude)
        writable = self.writable_csps()
        if not writable:
            return None
        for csp in self._ring.successors(chunk_id, len(writable)):
            if csp not in skip:
                return csp
        return None

    # -- metadata slots ------------------------------------------------------

    def metadata_slot_ids(self) -> list[str]:
        """Fixed-order metadata CSPs (slot i = share index i), including
        dark and removed ones: a slot keeps its position for good."""
        return list(self._meta_slots)
