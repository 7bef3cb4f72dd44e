"""The upload pipeline — the paper's Algorithm 2 and Figure 7.

Steps: resolve the file's head in the local metadata tree (the caller
syncs first), chunk the content, skip chunks whose shares already exist
anywhere in the cloud (dedup via the global chunk table), scatter new
chunks' shares to consistent-hash-selected CSPs in one parallel batch,
and only then publish the version's metadata — "so that no other client
will attempt to download the file before all shares have been uploaded."

Upload failures run through the shared :class:`ShareRetryLoop`:
transient errors back off and retry the same provider, permanent ones
fail over to a health-checked replacement, and exhausted providers
have their breaker tripped (or are marked write-full on quota).  A chunk that cannot reach ``t``
stored shares aborts the upload (the data would be unrecoverable) with
the full per-CSP attempt history; one that reaches ``t`` but not ``n``
is accepted and reported as degraded.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.chunking import Chunk, ContentDefinedChunker
from repro.core.chunkcache import ChunkCache
from repro.core.cloud import CyrusCloud
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.retry import ShareRetryLoop
from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.csp.resilient import HealthRegistry, RetryPolicy
from repro.erasure import KeyedSharer
from repro.errors import SelectionError, TransferError
from repro.metadata import (
    ChunkRecord,
    MetadataNode,
    MetadataStore,
    MetadataTree,
    ShareRecord,
)
from repro.metadata.node import ROOT_ID, node_id_of
from repro.obs import span_if
from repro.util.hashing import HashLane, file_id_of, sha1_hex

if TYPE_CHECKING:  # pragma: no cover
    from repro.util.hashing import LaneJob


@functools.lru_cache(maxsize=64)
def get_sharer(key: str, t: int, n: int) -> KeyedSharer:
    """Cached keyed sharers — (t, n) pairs recur across every chunk."""
    return KeyedSharer(key, t, n)


@dataclass
class UploadReport:
    """What one put() did and what it cost."""

    node: MetadataNode
    started: float
    finished: float
    bytes_uploaded: int
    new_chunks: int
    dedup_chunks: int
    degraded_chunks: tuple[str, ...] = ()
    share_results: tuple[OpResult, ...] = ()
    meta_results: tuple[OpResult, ...] = ()
    unchanged: bool = False

    @property
    def duration(self) -> float:
        return self.finished - self.started


@dataclass
class _ChunkPlan:
    chunk: Chunk
    t: int
    n: int
    lane: HashLane  # the put's: share digests are hashed there
    placements: dict[int, str] = field(default_factory=dict)  # index -> csp
    _share_cache: dict[int, bytes] = field(default_factory=dict)
    _digests: LaneJob | None = None
    # pool workers may pull different shares of one chunk concurrently;
    # the lock makes the one-time encode exactly-once
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def share_data(self, key: str, index: int, obs=None) -> bytes:
        """Coded bytes for one share index (all n computed on first use;
        their digests go on the put's hashing lane at once)."""
        with self._lock:
            if not self._share_cache:
                t0 = obs.clock.now() if obs is not None else 0.0
                sharer = get_sharer(key, self.t, self.n)
                self._share_cache = {
                    s.index: s.data for s in sharer.split(self.chunk.data)
                }
                blobs = tuple(self._share_cache[i] for i in range(self.n))
                if obs is not None:
                    obs.metrics.observe("cyrus_chunk_encode_seconds",
                                        obs.clock.now() - t0)
                self._digests = self.lane.submit(
                    "share", sum(map(len, blobs)), _share_digests, blobs)
            return self._share_cache[index]

    def share_digests(self, key: str, obs=None) -> tuple[str, ...]:
        """Per-index SHA-1 fingerprints (the decode-time verify truth).

        The coding is keyed and deterministic, so these digests are
        stable across clients — any node fingerprinting this chunk
        computes the same values.
        """
        self.share_data(key, 0, obs=obs)  # ensure the one-time encode ran
        return self.lane.join(self._digests)


def _share_digests(blobs: tuple[bytes, ...]) -> tuple[str, ...]:
    return tuple(sha1_hex(blob) for blob in blobs)


class Uploader:
    """Executes Algorithm 2 against a cloud + metadata store."""

    def __init__(
        self,
        cloud: CyrusCloud,
        store: MetadataStore,
        tree: MetadataTree,
        config: CyrusConfig,
        engine: TransferEngine,
        chunker: ContentDefinedChunker | None = None,
        policy: RetryPolicy | None = None,
        health: HealthRegistry | None = None,
        journal=None,
        ledger=None,
        *,
        cache: ChunkCache,
    ):
        self.cloud = cloud
        self.store = store
        self.tree = tree
        self.config = config
        self.engine = engine
        # optional repro.recovery.IntentJournal: when attached, every
        # mutating pipeline run is bracketed by begin/.../commit records
        self.journal = journal
        # optional repro.redundancy.DebtLedger: when attached, every
        # degraded write (t <= stored < n) is recorded as a repair debt
        self.ledger = ledger
        # the client's chunk cache: an edit's chunks are written through
        self.cache = cache
        self.chunker = chunker or ContentDefinedChunker(
            min_size=config.chunk_min,
            avg_size=config.chunk_avg,
            max_size=config.chunk_max,
        )
        if health is None:
            health = engine.health or HealthRegistry(clock=engine.clock)
        self.health = health
        self.retry_loop = ShareRetryLoop(engine, policy=policy, health=health)

    # ------------------------------------------------------------------

    def upload(
        self,
        name: str,
        data: bytes,
        client_id: str,
        modified: float | None = None,
    ) -> UploadReport:
        """Store one file version; returns a report with the new node."""
        started = self.engine.clock.now()
        if modified is None:
            modified = started
        # Algorithm 2 lines 2-4: resolve head, compute new head
        heads = self.tree.heads(name)
        if heads:
            head = max(heads, key=lambda h: (h.modified, h.node_id))
            prev_id = head.node_id
        else:
            head = None
            prev_id = ROOT_ID
        obs = getattr(self.engine, "obs", None)
        # chunk ids hash on the lane while the caller scans for cuts
        with HashLane(len(data), getattr(obs, "metrics", None)) as lane:
            with span_if(obs, "upload", file=name, size=len(data)):
                # line 5: chunking
                with span_if(obs, "chunk"):
                    # a re-save skips the spans its cached predecessor
                    # proves cut-free; ids are still hashed from ``data``
                    known = self.cache.spans() if head is not None else ()
                    chunks = self.chunker.chunk_bytes(data, known, lane)
                file_id = file_id_of(len(data), [c.id for c in chunks])
                if (head is not None and head.file_id == file_id
                        and not head.deleted):
                    return UploadReport(
                        node=head, started=started, finished=started,
                        bytes_uploaded=0, new_chunks=0,
                        dedup_chunks=len(head.chunks), unchanged=True,
                    )
                # lines 6-9: dedup + scatter
                plans, dedup_count = self._plan_chunks(chunks, lane)
                if obs is not None:
                    obs.metrics.inc("cyrus_chunks_new_total", len(plans))
                    obs.metrics.inc("cyrus_chunks_dedup_total", dedup_count)
                # journal the intent (planned share objects = the rollback
                # set, and the node id recovery asks the slots about)
                # before any provider is touched
                node_id = node_id_of(file_id, prev_id, name, client_id)
                intent_id = self._journal_begin("put", name, file_id, plans,
                                                node_id)
                with span_if(obs, "scatter", chunks=len(plans)):
                    share_results, degraded = self._scatter(plans, intent_id)
                # degraded writes become durable redundancy debts, each a
                # barrier: no node reaches the slots before its chunks'
                # debts are on disk
                for cid, (missing, failed_csps) in sorted(degraded.items()):
                    if obs is not None:
                        obs.metrics.inc("cyrus_upload_degraded_chunks_total")
                    if self.ledger is not None:
                        self.ledger.record(
                            cid, missing=missing, failed_csps=failed_csps,
                        )
                        if obs is not None:
                            from repro.redundancy.ledger import DEBT_RECORDED
                            obs.metrics.inc(DEBT_RECORDED)
                # line 10: metadata — only after every chunk upload resolved
                node = self._build_node(
                    name=name, file_id=file_id, prev_id=prev_id,
                    client_id=client_id, modified=modified, size=len(data),
                    chunks=chunks, plans=plans,
                )
                # the id ``begin`` journaled, from the same four fields
                node.__dict__["node_id"] = node_id
                with span_if(obs, "publish_meta"):
                    meta_results = self._publish(node)
        self.tree.add(node)
        if intent_id is not None:
            self.journal.commit(intent_id)
        # every chunk was just hashed to its id: verified plaintext
        self.cache.admit_edit([(c.id, c.data) for c in chunks], head)
        finished = self.engine.clock.now()
        uploaded = sum(
            r.op.payload_size() for r in share_results if r.ok
        ) + sum(r.op.payload_size() for r in meta_results if r.ok)
        return UploadReport(
            node=node,
            started=started,
            finished=finished,
            bytes_uploaded=uploaded,
            new_chunks=len(plans),
            dedup_chunks=dedup_count,
            degraded_chunks=tuple(sorted(degraded)),
            share_results=tuple(share_results),
            meta_results=tuple(meta_results),
        )

    # ------------------------------------------------------------------

    def _journal_begin(self, op: str, name: str, file_id: str,
                       plans: list[_ChunkPlan], node_id: str) -> str | None:
        """Open a journal intent naming every planned share object and
        the node the operation will publish."""
        if self.journal is None:
            return None
        placements = [
            {"chunk": plan.chunk.id, "index": index, "csp": csp,
             "object": chunk_share_object_name(index, plan.chunk.id)}
            for plan in plans
            for index, csp in sorted(plan.placements.items())
        ]
        return self.journal.begin(
            op, name=name, file_id=file_id, node_id=node_id,
            placements=placements,
        )

    def _plan_chunks(
        self, chunks: Sequence[Chunk], lane: HashLane
    ) -> tuple[list[_ChunkPlan], int]:
        """Split chunks into new (to scatter) vs already stored."""
        plans: list[_ChunkPlan] = []
        seen: set[str] = set()
        dedup = 0
        cluster_aware = self.config.respect_clusters
        t = self.config.t
        fixed_n = self.config.n is not None
        # a fixed n codes over every member, so a dark or full one costs
        # a debt, not a share; Eq. (1) sizes n to the members not dark
        members = [c for c in self.cloud.active_csps()
                   if fixed_n or not self.health.dark(c)]
        limit = (len({self.cloud.cluster_of(c) for c in members})
                 if cluster_aware else len(members))
        unhealthy = self._unhealthy()  # holds every dark writable CSP
        ready = len(self.cloud.writable_csps()) - sum(
            map(self.health.dark, unhealthy))
        for chunk in chunks:
            if chunk.id in seen:
                dedup += 1
                continue
            seen.add(chunk.id)
            if self.tree.chunk_table.is_stored(chunk.id):
                dedup += 1
                continue
            n = self.config.plan_n(limit)
            # the shares no writable CSP up now can take are owed (see
            # _scatter); fewer than t of them refuse the put
            placed = max(t, min(n, ready)) if fixed_n else n
            if placed > ready:
                raise SelectionError(
                    f"need {placed} writable CSPs for placement, "
                    f"have {ready}")
            csps = self.cloud.place_chunk(
                chunk.id, placed, respect_clusters=cluster_aware,
                avoid=unhealthy,
            )
            plans.append(
                _ChunkPlan(
                    chunk=chunk,
                    t=t,
                    n=n,
                    lane=lane,
                    placements={i: csp for i, csp in enumerate(csps)},
                )
            )
        return plans, dedup

    def _unhealthy(self) -> set[str]:
        """Writable CSPs demoted for placement: breaker-open (dark or
        quarantined) or dark and half-open.  A share assigned there
        costs a fail-fast plus a failover round before landing
        anywhere useful."""
        return {c for c in self.cloud.writable_csps()
                if self.health.dark(c) or not self.health.is_live(c)}

    def _scatter(
        self, plans: list[_ChunkPlan], intent_id: str | None = None
    ) -> tuple[list[OpResult], dict[str, tuple[tuple[int, ...], tuple[str, ...]]]]:
        """Upload all new chunks' shares via the shared retry loop."""
        outstanding: dict[str, _ChunkPlan] = {p.chunk.id: p for p in plans}
        succeeded: dict[str, set[int]] = {cid: set() for cid in outstanding}

        obs = getattr(self.engine, "obs", None)

        # On a parallel engine the encode is deferred into the op itself:
        # the pool worker that dispatches chunk k+1's first share runs
        # the erasure code while chunk k's shares are still uploading
        # (the chunk -> encode -> scatter pipeline of the tentpole).
        lazy = self.engine.parallel_enabled

        def build_op(key, csp: str) -> TransferOp:
            cid, idx = key
            plan = outstanding[cid]
            if lazy:
                return TransferOp(
                    kind=OpKind.PUT,
                    csp_id=csp,
                    name=chunk_share_object_name(idx, cid),
                    data_fn=lambda: plan.share_data(
                        self.config.key, idx, obs=obs
                    ),
                    chunk_id=cid,
                    file_key=None,
                )
            return TransferOp(
                kind=OpKind.PUT,
                csp_id=csp,
                name=chunk_share_object_name(idx, cid),
                data=plan.share_data(self.config.key, idx, obs=obs),
                chunk_id=cid,
                file_key=None,
            )

        def on_success(key, csp: str, result: OpResult) -> None:
            cid, idx = key
            succeeded[cid].add(idx)

        def on_giveup(key, csp: str, result: OpResult) -> None:
            if result.quota_exceeded:
                # full, not broken: keep it readable, stop placing new
                # shares there (Section 8)
                self.cloud.mark_write_full(csp)
            elif result.error_type != "CircuitOpenError":
                # genuine provider failure, retries exhausted; an open
                # breaker already embargoes the CSP
                self.health.trip(csp, result.error or "upload failed")

        def pick_alternate(key, failed_csp: str, tried: set[str]) -> str | None:
            cid, idx = key
            plan = outstanding[cid]
            replacement = self.cloud.replacement_csp(
                cid, holding=plan.placements.values(),
                exclude=tried | self._unhealthy(),
            )
            if replacement is None:
                plan.placements.pop(idx, None)
                return None
            plan.placements[idx] = replacement
            if intent_id is not None:
                # extend the rollback set *before* the re-dispatch: a
                # crash mid-batch must know this object may exist
                self.journal.record(
                    intent_id, "share-intent", chunk=cid, index=idx,
                    csp=replacement,
                    object=chunk_share_object_name(idx, cid),
                )
            return replacement

        items = [
            ((plan.chunk.id, idx), csp)
            for plan in plans
            for idx, csp in sorted(plan.placements.items())
        ]
        all_results, attempts = self.retry_loop.run(
            items, build_op, on_success, on_giveup, pick_alternate
        )
        # degraded chunks (t <= stored < n, whether a share failed or
        # was never placed) map to their redundancy debt: the missing
        # share indices and the CSPs that failed them
        degraded: dict[str, tuple[tuple[int, ...], tuple[str, ...]]] = {}
        for cid, plan in outstanding.items():
            stored = len(succeeded[cid])
            history = [
                attempt
                for (chunk_id, _idx), tries in sorted(attempts.items())
                if chunk_id == cid
                for attempt in tries
            ]
            if stored < plan.t:
                raise TransferError(
                    f"chunk {cid[:8]}: only {stored} shares stored, "
                    f"need t={plan.t} for recoverability "
                    f"({len(history)} attempts: "
                    f"{'; '.join(str(a) for a in history if not a.ok)})",
                    attempts=history,
                )
            if stored < plan.n:
                missing = tuple(sorted(set(range(plan.n)) - succeeded[cid]))
                failed_csps = tuple(sorted(
                    {a.csp_id for a in history if not a.ok}
                ))
                degraded[cid] = (missing, failed_csps)
            # keep only placements that actually landed
            plan.placements = {
                i: c for i, c in plan.placements.items() if i in succeeded[cid]
            }
        return all_results, degraded

    def _build_node(
        self,
        name: str,
        file_id: str,
        prev_id: str,
        client_id: str,
        modified: float,
        size: int,
        chunks: Sequence[Chunk],
        plans: list[_ChunkPlan],
    ) -> MetadataNode:
        plan_by_id = {p.chunk.id: p for p in plans}
        chunk_records = []
        share_records: list[ShareRecord] = []
        recorded: set[str] = set()
        obs = getattr(self.engine, "obs", None)
        for chunk in chunks:
            plan = plan_by_id.get(chunk.id)
            if plan is not None:
                t, n = plan.t, plan.n
                digests = plan.share_digests(self.config.key, obs=obs)
            else:
                location = self.tree.chunk_table.get(chunk.id)
                assert location is not None, "dedup chunk missing from table"
                t, n = location.t, location.n
                digests = location.share_digests
            chunk_records.append(
                ChunkRecord(
                    chunk_id=chunk.id, offset=chunk.offset,
                    size=chunk.size, t=t, n=n,
                    share_digests=digests,
                )
            )
            if chunk.id in recorded:
                continue
            recorded.add(chunk.id)
            if plan is not None:
                share_records.extend(
                    ShareRecord(chunk_id=chunk.id, index=i, csp_id=c)
                    for i, c in sorted(plan.placements.items())
                )
            else:
                location = self.tree.chunk_table.get(chunk.id)
                share_records.extend(
                    ShareRecord(chunk_id=chunk.id, index=i, csp_id=c)
                    for i, c in location.placements
                )
        return MetadataNode(
            file_id=file_id,
            prev_id=prev_id,
            client_id=client_id,
            name=name,
            deleted=False,
            modified=modified,
            size=size,
            chunks=tuple(chunk_records),
            shares=tuple(share_records),
        )

    def _publish(self, node: MetadataNode) -> list[OpResult]:
        """Scatter the node's metadata shares (PUT_META batch).

        Metadata slots are fixed (the name encodes the slot), so the
        shared retry loop retries transient failures in place, with
        backoff, and never fails over.  Shares go out in the
        authenticated v2 envelope; a publish that lands t but not m
        shares is accepted *and* recorded as a metadata repair debt,
        with the failed providers named in metrics and (on abort) in
        the error.  A dark slot is skipped and owed; a removed one is
        skipped and never owed (nothing could pay that debt).
        """
        frames = self.store.frames_for(node)
        sent = {index: (provider.csp_id, name, blob)
                for provider, name, blob, index in frames
                if self.cloud.keeps(provider.csp_id)
                and not self.health.dark(provider.csp_id)}
        landed: set[int] = set()

        def build_op(index, csp: str) -> TransferOp:
            _csp, name, blob = sent[index]
            return TransferOp(kind=OpKind.PUT_META, csp_id=csp, name=name,
                              data=blob)

        results, _attempts = self.retry_loop.run(
            [(index, csp) for index, (csp, _name, _blob) in sorted(sent.items())],
            build_op,
            lambda index, _csp, _result: landed.add(index),
            lambda *_giveup: None,
            lambda *_alternate: None,
        )
        obs = getattr(self.engine, "obs", None)
        if obs is not None:
            from repro.metadata.store import META_PUBLISH_FAILURES

            for index, (csp, _name, _blob) in sorted(sent.items()):
                if index not in landed:
                    obs.metrics.inc(META_PUBLISH_FAILURES, csp=csp)
        short = [(p.csp_id, index) for p, _name, _blob, index in frames
                 if index not in landed]
        if len(landed) < self.store.t:
            names = ", ".join(sorted({csp for csp, _i in short}))
            raise TransferError(
                f"metadata for {node.name!r}: only {len(landed)} shares "
                f"stored, need {self.store.t} (failed providers: {names})"
            )
        owed = [(csp, index) for csp, index in short
                if self.cloud.keeps(csp)]
        if owed and self.ledger is not None:
            # degraded publish: accepted, but short of m-way dispersal —
            # a durable obligation the repair loop re-disperses
            self.ledger.record(
                node.node_id,
                missing=tuple(sorted(index for _c, index in owed)),
                failed_csps=tuple(sorted({csp for csp, _i in owed})),
                kind="meta",
            )
            if obs is not None:
                from repro.metadata.store import META_DEBTS_RECORDED
                from repro.redundancy.ledger import DEBT_RECORDED

                obs.metrics.inc(DEBT_RECORDED)
                obs.metrics.inc(META_DEBTS_RECORDED)
        return results

    def publish_tombstone(
        self, name: str, client_id: str, modified: float | None = None
    ) -> UploadReport:
        """Mark a file deleted (Section 5.4): a tombstone version node.

        Shares are left alone — other files may reference the chunks —
        and the metadata chain is preserved so the file can be
        recovered by version traversal.
        """
        started = self.engine.clock.now()
        head = self.tree.latest(name)
        if modified is None:
            modified = started
        node = MetadataNode(
            file_id=head.file_id,
            prev_id=head.node_id,
            client_id=client_id,
            name=name,
            deleted=True,
            modified=modified,
            size=head.size,
            chunks=head.chunks,
            shares=head.shares,
        )
        # tombstones create no shares: recovery acknowledges the node
        # or deletes its copies, nothing else to undo
        intent_id = self._journal_begin("delete", name, head.file_id, [],
                                        node.node_id)
        meta_results = self._publish(node)
        self.tree.add(node)
        if intent_id is not None:
            self.journal.commit(intent_id)
        finished = self.engine.clock.now()
        return UploadReport(
            node=node, started=started, finished=finished,
            bytes_uploaded=sum(r.op.payload_size() for r in meta_results if r.ok),
            new_chunks=0, dedup_chunks=len(node.chunks),
            meta_results=tuple(meta_results),
        )
