"""Scattered metadata storage (paper Section 5.2, footnote 3).

Metadata nodes are secret-shared with (t, m) coding "at a fixed set of m
CSPs" — the paper stores metadata pieces at *all* CSPs so clients can
always find them.  The store handles encode -> split -> upload and
list -> download -> join, tolerating up to ``m - t`` unreachable
providers on both paths.

The read path is a **verified quorum fetch**: every downloaded share is
unframed and checked against its envelope digests
(:mod:`repro.metadata.codec`), shares are grouped by the node plaintext
they claim to encode, and the store fails over across all m slots until
a group of t shares decodes to a plaintext that matches its digest.
When an interrupted publish leaves slots disagreeing, the group with
the highest publish stamp wins — the latest version, not the first
reachable one.  Corrupt shares are attributed to their CSP through the
shared :class:`repro.csp.resilient.HealthRegistry` (same quarantine and
breaker rules as data shares), and every missing, stale or corrupt slot
becomes a metadata repair debt in the attached
:class:`repro.redundancy.DebtLedger`.
"""

from __future__ import annotations

from typing import Sequence

from repro.csp.base import CloudProvider
from repro.erasure import KeyedSharer, Share
from repro.errors import (
    CSPError,
    CyrusError,
    InsufficientSharesError,
    MetadataError,
    ObjectNotFoundError,
)
from repro.metadata.codec import (
    METADATA_PREFIX,
    MetaShareFrame,
    decode_node,
    encode_node,
    metadata_share_name,
    pack_meta_share,
    parse_metadata_share_name,
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

    Both fetch paths feed it — :meth:`MetadataStore.fetch` share by
    share, :class:`repro.core.sync.SyncService` from a parallel GET
    batch — so serial and async backends verify identically.  Shares
    are grouped by the node digest their envelope claims; a group
    decodes only when a t-subset joins to a plaintext matching that
    digest and naming the requested node id.  :meth:`finish` performs the
    liar attribution and debt recording against the store's health
    registry and ledger.
    """

    def __init__(self, store: "MetadataStore", node_id: str):
        self.store = store
        self.node_id = node_id
        # node-digest -> {index: (csp_id, frame)}
        self._groups: dict[str, dict[int, tuple[str, MetaShareFrame]]] = {}
        self._stamps: dict[str, int] = {}
        self.missing: set[int] = set()  # slots definitively absent
        self.tried: set[int] = set()
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
        self.tried.add(index)
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
        self.tried.add(index)
        self.missing.add(index)

    def note_unreachable(self, index: int) -> None:
        """The slot's provider could not answer; no verdict on the share."""
        self.tried.add(index)

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

    def raise_unverified(self) -> None:
        collected = sum(len(g) for g in self._groups.values())
        raise InsufficientSharesError(
            f"metadata node {self.node_id[:8]}: no verified t={self.store.t} "
            f"quorum among {collected} intact shares "
            f"({len(self.corrupt)} corrupt, {len(self.missing)} missing)"
        )


class MetadataStore:
    """Reads and writes metadata nodes across a fixed provider set.

    Args:
        providers: The m metadata CSPs, in a stable order — share index
            i goes to ``providers[i]`` on every client, so the key-
            derived codec lines up.
        key: The user key string (drives the dispersal matrix).
        t: Shares needed to reconstruct a node (privacy threshold).
        health: Optional :class:`repro.csp.resilient.HealthRegistry`;
            corrupt metadata shares are attributed through it, sharing
            the data path's quarantine and breaker rules.
        metrics: Optional metrics registry (``obs.metrics``).
        ledger: Optional :class:`repro.redundancy.DebtLedger`; missing,
            stale and corrupt metadata shares become ``meta`` debts.
        clock: Optional clock; stamps each publish so a verified fetch
            can prefer the latest version when slots disagree.
    """

    def __init__(
        self,
        providers: Sequence[CloudProvider],
        key: str,
        t: int = 2,
        health=None,
        metrics=None,
        ledger=None,
        clock=None,
    ):
        if len(providers) < t:
            raise MetadataError(
                f"need at least t={t} metadata providers, got {len(providers)}"
            )
        self.providers = list(providers)
        self.key = key
        self.t = t
        self.health = health
        self.metrics = metrics
        self.ledger = ledger
        self.clock = clock
        self._sharer = KeyedSharer(key, t, len(self.providers))

    @property
    def m(self) -> int:
        """Number of metadata providers."""
        return len(self.providers)

    # -- encoding helpers (used by the timed transfer engine too) --------

    def shares_for(self, node: MetadataNode) -> list[tuple[CloudProvider, str, Share]]:
        """(provider, object name, share) triples for one node."""
        return self._split(node, encode_node(node))

    def _split(self, node: MetadataNode, payload: bytes):
        node_id = node.node_id
        return [
            (self.providers[s.index], metadata_share_name(node_id, s.index), s)
            for s in self._sharer.split(payload)
        ]

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
        return [
            (provider, name,
             pack_meta_share(share.data, share.chunk_size, node_digest, stamp),
             share.index)
            for provider, name, share in self._split(node, payload)
        ]

    def publish_stamp(self) -> int:
        """Millisecond stamp for the next publish (0 without a clock)."""
        if self.clock is None:
            return 0
        return max(0, int(self.clock.now() * 1000))

    def decode_shares(self, shares: Sequence[Share]) -> MetadataNode:
        """Reassemble a node from t+ shares."""
        return decode_node(self._sharer.join(shares))

    def share_size(self, node: MetadataNode) -> int:
        """Byte size of one metadata share (for transfer accounting)."""
        payload_len = len(encode_node(node))
        return max(1, -(-payload_len // self.t))

    def assembler(self, node_id: str) -> NodeAssembler:
        """A verified-decode accumulator bound to this store's health
        registry and ledger (used by the sync service's batch path)."""
        return NodeAssembler(self, node_id)

    # -- direct (untimed) data plane ------------------------------------

    def publish(self, node: MetadataNode, stamp: int | None = None) -> None:
        """Upload the node's m shares; tolerates m - t provider failures.

        Failed slots are named (and counted per CSP under
        ``cyrus_metadata_publish_failures_total``); a degraded publish —
        accepted, but short of full m-way dispersal — records a ``meta``
        repair debt so the missing shares are re-dispersed later.
        """
        failures: list[tuple[str, CSPError]] = []
        failed_indices: list[int] = []
        for provider, name, blob, index in self.frames_for(node, stamp):
            try:
                provider.upload(name, blob)
            except CSPError as exc:
                failures.append((provider.csp_id, exc))
                failed_indices.append(index)
                if self.metrics is not None:
                    self.metrics.inc(META_PUBLISH_FAILURES, csp=provider.csp_id)
        stored = self.m - len(failures)
        if stored < self.t:
            detail = "; ".join(
                f"{csp}: {type(exc).__name__}: {exc}" for csp, exc in failures
            )
            raise MetadataError(
                f"metadata node {node.node_id[:8]}: only {stored}/{self.m} "
                f"shares stored, need t={self.t} for recoverability "
                f"(failed providers: {detail})"
            )
        if failures:
            self._record_meta_debt(
                node.node_id,
                missing=sorted(failed_indices),
                failed_csps=sorted({csp for csp, _exc in failures}),
            )

    def fetch(self, node_id: str) -> MetadataNode:
        """Verified quorum fetch: fail over across all m slots.

        Every share is checked against its envelope; corrupt shares are
        attributed to their CSP and skipped, shares of distinct publish
        generations are grouped apart, and the highest-stamped group
        that decodes to digest-verified plaintext wins.  All reachable
        slots are probed — stopping at the first t would let up to
        ``m - t`` stale or lying slots serve an old version.
        """
        asm = self.assembler(node_id)
        for index, provider in enumerate(self.providers):
            try:
                blob = provider.download(metadata_share_name(node_id, index))
            except ObjectNotFoundError:
                asm.note_missing(index)
                continue
            except CSPError:
                asm.note_unreachable(index)
                continue
            asm.add(index, provider.csp_id, blob)
        node = asm.finish()
        if node is None:
            asm.raise_unverified()
        return node

    def list_node_ids(self) -> set[str]:
        """Node ids with at least t shares visible across providers.

        The union of per-provider listings, filtered to reconstructible
        nodes — a node mid-upload (fewer than t shares landed) is
        invisible, which is what delays visibility until the uploader's
        final metadata write completes.
        """
        counts: dict[str, int] = {}
        reachable = 0
        for provider in self.providers:
            try:
                infos = provider.list(prefix=METADATA_PREFIX)
            except CSPError:
                continue
            reachable += 1
            for info in infos:
                try:
                    node_id, _ = parse_metadata_share_name(info.name)
                except MetadataError:
                    continue
                counts[node_id] = counts.get(node_id, 0) + 1
        if reachable < self.t:
            raise MetadataError(
                f"only {reachable} metadata providers reachable, need {self.t}"
            )
        return {nid for nid, c in counts.items() if c >= self.t}

    def fetch_all(self) -> list[MetadataNode]:
        """Every reconstructible node (full sync)."""
        return [self.fetch(nid) for nid in sorted(self.list_node_ids())]

    # -- repair-debt plumbing ---------------------------------------------

    def _record_meta_debt(self, node_id: str, missing, failed_csps=()) -> None:
        """Durable obligation to re-disperse a node's damaged slots."""
        if self.ledger is None:
            return
        self.ledger.record(node_id, missing=tuple(missing),
                           failed_csps=tuple(failed_csps), kind="meta")
        if self.metrics is not None:
            self.metrics.inc(META_DEBTS_RECORDED)
