"""Scattered metadata storage (paper Section 5.2, footnote 3).

Metadata nodes are secret-shared with (t, m) coding "at a fixed set of m
CSPs" — the paper stores metadata pieces at *all* CSPs so clients can
always find them.  The store owns two decisions and moves no bytes:
*where* a node's m slots are, and *how* its shares are framed.  A
client has one group of m slots; the fleet organises its metadata CSPs
into several equal groups and consistent-hashes each file's whole
version tree onto one of them (:class:`repro.hashring.ConsistentHashRing`,
the ring the data plane uses), so one group's outage degrades exactly
the files routed to it.  Every byte moves through the transfer engine:
:meth:`MetadataStore.frames_for` feeds the uploader's ``PUT_META``
batch, and :func:`repro.core.sync.fetch_nodes` is the one read.

A read is a **verified quorum fetch**: every downloaded share is
unframed and checked against its envelope digests
(:mod:`repro.metadata.codec`), shares are grouped by the node plaintext
they claim to encode, and a node decodes only when a group of t shares
joins to a plaintext that matches its digest.  When an interrupted
publish leaves slots disagreeing, the group with the highest publish
stamp wins — the latest version, not the first reachable one.  Corrupt
shares are attributed to their CSP through the shared
:class:`repro.csp.resilient.HealthRegistry` (same quarantine and breaker
rules as data shares), and every missing, stale or corrupt slot becomes
a metadata repair debt in the attached
:class:`repro.redundancy.DebtLedger`.
"""

from __future__ import annotations

from typing import Sequence

from repro.csp.base import CloudProvider
from repro.erasure import KeyedSharer
from repro.errors import CyrusError, MetadataError
from repro.hashring import ConsistentHashRing
from repro.metadata.codec import (
    MetaShareFrame,
    decode_node,
    encode_node,
    metadata_share_name,
    pack_meta_share,
    unpack_meta_share,
)
from repro.metadata.node import MetadataNode
from repro.util.hashing import sha1_hex

#: Metric names (mirrors the repro.obs constant style).
META_PUBLISH_FAILURES = "cyrus_metadata_publish_failures_total"
META_CORRUPT_SHARES = "cyrus_metadata_corrupt_shares_total"
META_DEBTS_RECORDED = "cyrus_metadata_debts_recorded_total"


class NodeAssembler:
    """Incremental verified decode of one metadata node.

    :func:`repro.core.sync.fetch_nodes` feeds it from one ``GET_META``
    batch for every reader — sync, scrub and repair — so serial and
    pooled engines verify identically.  Shares are grouped by the node
    digest their envelope claims; a group decodes only when a t-subset
    joins to a plaintext matching that digest and naming the requested
    node id.  :meth:`finish` performs the liar attribution and debt
    recording against the store's health registry and ledger.
    """

    def __init__(self, store: "MetadataStore", node_id: str):
        self.store = store
        self.node_id = node_id
        # node-digest -> {index: (csp_id, frame)}
        self._groups: dict[str, dict[int, tuple[str, MetaShareFrame]]] = {}
        self._stamps: dict[str, int] = {}
        self.missing: set[int] = set()  # slots definitively absent
        # (index, csp_id, detail) failing their own envelope — attributed
        # the moment they are seen, decode success or not
        self.corrupt: list[tuple[int, str, str]] = []
        # slots an interrupted publish left behind (set by finish)
        self.stale: set[int] = set()
        self._node: MetadataNode | None = None
        self._plaintext: bytes | None = None
        self._win_key: str | None = None
        self._finished = False

    # -- feeding ----------------------------------------------------------

    def add(self, index: int, csp_id: str, blob: bytes) -> bool:
        """Feed one downloaded share blob; False if it fails its envelope."""
        try:
            frame = unpack_meta_share(blob)
        except MetadataError as exc:
            self._attribute(index, csp_id, f"unparseable frame: {exc}")
            return False
        if not frame.payload_intact():
            self._attribute(index, csp_id, "share digest mismatch")
            return False
        key = frame.node_digest
        self._groups.setdefault(key, {})[index] = (csp_id, frame)
        self._stamps[key] = max(self._stamps.get(key, 0), frame.stamp)
        return True

    def note_missing(self, index: int) -> None:
        """The slot's provider answered and the object is gone."""
        self.missing.add(index)

    def note_unreachable(self, index: int) -> None:
        """The slot's provider could not answer; no verdict on the share."""

    def _attribute(self, index: int, csp_id: str, detail: str) -> None:
        self.corrupt.append((index, csp_id, detail))
        store = self.store
        if store.health is not None:
            store.health.record_corruption(
                csp_id,
                detail=f"metadata {self.node_id[:8]} share {index}: {detail}",
            )
        if store.metrics is not None:
            store.metrics.inc(META_CORRUPT_SHARES, csp=csp_id)

    # -- decoding ---------------------------------------------------------

    def _ordered_keys(self) -> list[str]:
        """Candidate groups, freshest first (stamp, then size, then key)."""
        return sorted(
            self._groups,
            key=lambda k: (-self._stamps[k], -len(self._groups[k]), k),
        )

    def try_decode(self, final: bool = False) -> MetadataNode | None:
        """Attempt a verified decode from the shares collected so far.

        Until ``final``, a group older (lower stamp) than the freshest
        stamp observed is held back — a fresher publish may still
        complete as more slots are probed; at the end the best verified
        group wins regardless.
        """
        if self._node is not None:
            return self._node
        best_stamp = max(self._stamps.values(), default=0)
        for key in self._ordered_keys():
            group = self._groups[key]
            if len(group) < self.store.t:
                continue
            if not final and self._stamps[key] < best_stamp:
                continue
            shares = [
                frame.to_share(index, self.store.t, self.store.m)
                for index, (_csp, frame) in sorted(group.items())
            ]
            try:
                plaintext = self.store._sharer.join_verified(
                    shares, verify=lambda pt, digest=key: sha1_hex(pt) == digest,
                )
            except CyrusError:
                continue  # no verifying t-subset in this group (yet)
            try:
                node = decode_node(plaintext)
            except MetadataError:
                continue
            if node.node_id != self.node_id:
                continue  # a valid node, but not the one this name claims
            self._node, self._plaintext, self._win_key = node, plaintext, key
            return node
        return None

    # -- settlement -------------------------------------------------------

    def finish(self) -> MetadataNode | None:
        """Final decode + attribution + debt recording.  Idempotent."""
        node = self.try_decode(final=True)
        if self._finished:
            return node
        self._finished = True
        if node is not None and self._plaintext is not None:
            truth = {
                s.index: s.data
                for s in self.store._sharer.split(self._plaintext)
            }
            for key, group in self._groups.items():
                for index, (csp_id, frame) in sorted(group.items()):
                    if frame.payload == truth.get(index):
                        continue
                    if key == self._win_key:
                        # intact envelope claiming the verified digest
                        # around wrong bytes: a forged share, not a stale
                        # one — same attribution as a digest mismatch
                        self._attribute(
                            index, csp_id,
                            "payload does not match verified node",
                        )
                    else:
                        # an honest slot left behind by an interrupted
                        # publish: needs re-dispersal, not quarantine
                        self.stale.add(index)
        bad = self.missing | self.stale | {i for i, _c, _d in self.corrupt}
        if bad:
            self.store._record_meta_debt(
                self.node_id,
                missing=sorted(bad),
                failed_csps=sorted({csp for _i, csp, _d in self.corrupt}),
            )
        return node


class MetadataStore:
    """Where a node's metadata slots are, and how its shares are framed.

    Args:
        groups: The metadata CSP groups, each exactly m providers in a
            stable order — share index i of a node routed to a group
            goes to ``group[i]`` on every client, so the key-derived
            codec lines up.  A client passes one group; the fleet
            several, all the same size so one (key, t, m) codec serves
            them all.
        key: The user key string (drives the dispersal matrix).
        t: Shares needed to reconstruct a node (privacy threshold).
        health: Optional :class:`repro.csp.resilient.HealthRegistry`;
            corrupt metadata shares are attributed through it, sharing
            the data path's quarantine and breaker rules.
        metrics: Optional metrics registry (``obs.metrics``).
        ledger: Optional :class:`repro.redundancy.DebtLedger`; missing,
            stale and corrupt metadata shares become ``meta`` debts.
        clock: Optional clock; stamps each publish so a verified read
            can prefer the latest version when slots disagree.
        route_prefix: Prepended to file names before hashing onto a
            group — the fleet passes ``f"{tenant_id}/"`` so each
            tenant's files spread independently.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[CloudProvider]],
        key: str,
        t: int = 2,
        health=None,
        metrics=None,
        ledger=None,
        clock=None,
        route_prefix: str = "",
    ):
        if not groups:
            raise MetadataError("need at least one metadata group")
        sizes = {len(g) for g in groups}
        if len(sizes) != 1:
            raise MetadataError(
                f"metadata groups must be equal-sized (one (t, m) codec "
                f"serves all groups), got sizes {sorted(sizes)}"
            )
        group_ids = ["|".join(p.csp_id for p in g) for g in groups]
        if len(set(group_ids)) != len(group_ids):
            raise MetadataError("metadata groups must be distinct")
        self.groups = [list(g) for g in groups]
        self.m = len(self.groups[0])
        if self.m < t:
            raise MetadataError(
                f"need at least t={t} metadata providers, got {self.m}"
            )
        #: every slot, group-major: what a sync lists
        self.providers = [p for g in self.groups for p in g]
        self.t = t
        self.health = health
        self.metrics = metrics
        self.ledger = ledger
        self.clock = clock
        self.route_prefix = route_prefix
        self._sharer = KeyedSharer(key, t, self.m)
        self._ring = ConsistentHashRing()
        for gid in group_ids:
            self._ring.add(gid)
        self._group_of = {gid: i for i, gid in enumerate(group_ids)}

    # -- where a node's slots are ---------------------------------------

    def shard_for(self, name: str) -> int:
        """Index of the group holding every version of file ``name``."""
        return self._group_of[self._ring.owner(self.route_prefix + name)]

    def slots_for(self, name: str) -> list[CloudProvider]:
        """The m providers of ``name``'s group; slot i is ``[i]``."""
        return self.groups[self.shard_for(name)]

    def slots_of(self, node_id: str, listing) -> list[CloudProvider]:
        """Slots of a node known only by id, from a per-CSP ``listing``
        (csp -> object names, unreachable CSPs left out): the first
        group listing one of the node's shares, else the first group
        with an unreachable slot (it may hold them), else none."""
        listed = (g for g in self.groups if any(
            metadata_share_name(node_id, i) in listing.get(p.csp_id, ())
            for i, p in enumerate(g)))
        dark = (g for g in self.groups
                if any(p.csp_id not in listing for p in g))
        return next(listed, None) or next(dark, [])

    # -- how its shares are framed ---------------------------------------

    def frames_for(
        self, node: MetadataNode, stamp: int | None = None
    ) -> list[tuple[CloudProvider, str, bytes, int]]:
        """(provider, object name, framed bytes, index) for one node.

        The frame is the authenticated v2 envelope: per-share digest,
        node-plaintext digest, and the publish stamp used to rank
        versions when an interrupted publish leaves slots disagreeing.
        """
        payload = encode_node(node)
        node_digest = sha1_hex(payload)
        if stamp is None:
            stamp = self.publish_stamp()
        slots = self.slots_for(node.name)
        return [
            (slots[share.index],
             metadata_share_name(node.node_id, share.index),
             pack_meta_share(share.data, share.chunk_size, node_digest, stamp),
             share.index)
            for share in self._sharer.split(payload)
        ]

    def publish_stamp(self) -> int:
        """Millisecond stamp for the next publish (0 without a clock)."""
        if self.clock is None:
            return 0
        return max(0, int(self.clock.now() * 1000))

    def assembler(self, node_id: str) -> NodeAssembler:
        """A verified-decode accumulator bound to this store's health
        registry and ledger (fed by :func:`repro.core.sync.fetch_nodes`)."""
        return NodeAssembler(self, node_id)

    # -- repair-debt plumbing ---------------------------------------------

    def _record_meta_debt(self, node_id: str, missing, failed_csps=()) -> None:
        """Durable obligation to re-disperse a node's damaged slots."""
        if self.ledger is None:
            return
        self.ledger.record(node_id, missing=tuple(missing),
                           failed_csps=tuple(failed_csps), kind="meta")
        if self.metrics is not None:
            self.metrics.inc(META_DEBTS_RECORDED)
