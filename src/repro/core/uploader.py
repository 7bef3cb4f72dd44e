"""The upload pipeline — the paper's Algorithm 2 and Figure 7.

Steps: resolve the file's head in the local metadata tree (the caller
syncs first), chunk the content, skip chunks whose shares already exist
anywhere in the cloud (dedup via the global chunk table), scatter new
chunks' shares to consistent-hash-selected CSPs in one parallel batch,
and only then publish the version's metadata — "so that no other client
will attempt to download the file before all shares have been uploaded."

Upload failures run through the shared :class:`ShareRetryLoop`:
transient errors back off and retry the same provider, permanent ones
fail over to a health-checked replacement, and exhausted providers are
marked failed (or write-full on quota).  A chunk that cannot reach ``t``
stored shares aborts the upload (the data would be unrecoverable) with
the full per-CSP attempt history; one that reaches ``t`` but not ``n``
is accepted and reported as degraded.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.chunking import Chunk, ContentDefinedChunker
from repro.core.cloud import CyrusCloud
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.retry import ShareRetryLoop
from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.csp.resilient import HealthRegistry, RetryPolicy
from repro.erasure import KeyedSharer
from repro.erasure.rs import default_backend
from repro.errors import TransferError
from repro.metadata import (
    ChunkRecord,
    GlobalChunkTable,
    MetadataNode,
    MetadataStore,
    MetadataTree,
    ShareRecord,
)
from repro.metadata.codec import encode_node
from repro.metadata.node import ROOT_ID
from repro.obs import span_if
from repro.util.hashing import sha1_hex


@functools.lru_cache(maxsize=64)
def _cached_sharer(key: str, t: int, n: int, backend: str) -> KeyedSharer:
    return KeyedSharer(key, t, n, backend=backend)


def get_sharer(key: str, t: int, n: int) -> KeyedSharer:
    """Cached keyed sharers — (t, n) pairs recur across every chunk.

    The resolved codec backend is part of the cache key so a
    ``CYRUS_CODEC`` change between calls cannot hand back a sharer
    built for the other backend.
    """
    return _cached_sharer(key, t, n, default_backend())


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
    placements: dict[int, str] = field(default_factory=dict)  # index -> csp
    _share_cache: dict[int, bytes] = field(default_factory=dict)
    # pool workers may pull different shares of one chunk concurrently;
    # the lock makes the one-time encode exactly-once
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def share_data(self, key: str, index: int, obs=None) -> bytes:
        """Coded bytes for one share index (all n computed on first use)."""
        with self._lock:
            if not self._share_cache:
                t0 = obs.clock.now() if obs is not None else 0.0
                sharer = get_sharer(key, self.t, self.n)
                self._share_cache = {
                    s.index: s.data for s in sharer.split(self.chunk.data)
                }
                if obs is not None:
                    obs.metrics.observe("cyrus_chunk_encode_seconds",
                                        obs.clock.now() - t0)
            return self._share_cache[index]

    def share_digests(self, key: str, obs=None) -> tuple[str, ...]:
        """Per-index SHA-1 fingerprints (the decode-time verify truth).

        The coding is keyed and deterministic, so these digests are
        stable across clients — any node fingerprinting this chunk
        computes the same values.
        """
        self.share_data(key, 0, obs=obs)  # ensure the one-time encode ran
        with self._lock:
            return tuple(
                sha1_hex(self._share_cache[i]) for i in range(self.n)
            )


class Uploader:
    """Executes Algorithm 2 against a cloud + metadata store."""

    def __init__(
        self,
        cloud: CyrusCloud,
        store: MetadataStore,
        tree: MetadataTree,
        chunk_table: GlobalChunkTable,
        config: CyrusConfig,
        engine: TransferEngine,
        chunker: ContentDefinedChunker | None = None,
        retry_rounds: int = 2,
        policy: RetryPolicy | None = None,
        health: HealthRegistry | None = None,
        journal=None,
        ledger=None,
    ):
        self.cloud = cloud
        self.store = store
        self.tree = tree
        self.chunk_table = chunk_table
        self.config = config
        self.engine = engine
        # optional repro.recovery.IntentJournal: when attached, every
        # mutating pipeline run is bracketed by begin/.../commit records
        self.journal = journal
        # optional repro.redundancy.DebtLedger: when attached, every
        # degraded write (t <= stored < n) is recorded as a repair debt
        self.ledger = ledger
        self.chunker = chunker or ContentDefinedChunker(
            min_size=config.chunk_min,
            avg_size=config.chunk_avg,
            max_size=config.chunk_max,
            engine=config.chunker_engine,
            seed=config.chunker_seed,
        )
        # legacy retry_rounds maps onto the shared policy's attempt budget
        if policy is None:
            policy = RetryPolicy(max_attempts=retry_rounds + 1)
        self.retry_loop = ShareRetryLoop(
            engine, policy=policy,
            health=health if health is not None else engine.health,
        )

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
        file_id = sha1_hex(data)
        if head is not None and head.file_id == file_id and not head.deleted:
            return UploadReport(
                node=head, started=started, finished=started,
                bytes_uploaded=0, new_chunks=0, dedup_chunks=len(head.chunks),
                unchanged=True,
            )
        obs = getattr(self.engine, "obs", None)
        with span_if(obs, "upload", file=name, size=len(data)):
            # line 5: chunking
            with span_if(obs, "chunk"):
                chunks = self.chunker.chunk_bytes(data)
            # lines 6-9: dedup + scatter
            plans, dedup_count = self._plan_chunks(chunks)
            if obs is not None:
                obs.metrics.inc("cyrus_chunks_new_total", len(plans))
                obs.metrics.inc("cyrus_chunks_dedup_total", dedup_count)
            # journal the intent (planned share objects = the rollback
            # set) before any provider is touched
            intent_id = self._journal_begin("put", name, file_id, plans)
            with span_if(obs, "scatter", chunks=len(plans)):
                share_results, degraded = self._scatter(plans, intent_id)
            # degraded writes become durable redundancy debts *inside*
            # the intent: a crash before commit replays the put, and the
            # recovery pass reconciles these records into the ledger
            for cid, (missing, failed_csps) in sorted(degraded.items()):
                if obs is not None:
                    obs.metrics.inc("cyrus_upload_degraded_chunks_total")
                if intent_id is not None:
                    self.journal.record(
                        intent_id, "debt", chunk=cid,
                        missing=list(missing), failed=list(failed_csps),
                    )
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
            if intent_id is not None:
                # the roll-forward payload: shares are all durable now,
                # so a crash past this point finishes the publish
                self.journal.record(
                    intent_id, "meta-intent",
                    node=encode_node(node).decode("utf-8"),
                )
            with span_if(obs, "publish_meta"):
                meta_results = self._publish(node)
            if intent_id is not None:
                self.journal.record(intent_id, "meta-published",
                                    node_id=node.node_id)
        self.tree.add(node)
        self.chunk_table.record_node(node)
        if intent_id is not None:
            self.journal.commit(intent_id)
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
                       plans: list[_ChunkPlan]) -> str | None:
        """Open a journal intent naming every planned share object."""
        if self.journal is None:
            return None
        placements = [
            {"chunk": plan.chunk.id, "index": index, "csp": csp,
             "object": chunk_share_object_name(index, plan.chunk.id)}
            for plan in plans
            for index, csp in sorted(plan.placements.items())
        ]
        return self.journal.begin(
            op, name=name, file_id=file_id, placements=placements,
        )

    def _plan_chunks(
        self, chunks: Sequence[Chunk]
    ) -> tuple[list[_ChunkPlan], int]:
        """Split chunks into new (to scatter) vs already stored."""
        plans: list[_ChunkPlan] = []
        seen: set[str] = set()
        dedup = 0
        cluster_aware = self.config.respect_clusters
        limit = (
            self.cloud.cluster_count()
            if cluster_aware
            else len(self.cloud.active_csps())
        )
        for chunk in chunks:
            if chunk.id in seen:
                dedup += 1
                continue
            seen.add(chunk.id)
            if self.chunk_table.is_stored(chunk.id):
                dedup += 1
                continue
            n = self.config.plan_n(limit)
            # demote breaker-open providers (quarantined or dark): a
            # share assigned there costs a guaranteed fail-fast plus a
            # failover round before landing anywhere useful
            unhealthy = {
                c for c in self.cloud.writable_csps()
                if not self.retry_loop.alternate_is_live(c)
            }
            csps = self.cloud.place_chunk(
                chunk.id, n, respect_clusters=cluster_aware,
                avoid=unhealthy,
            )
            plans.append(
                _ChunkPlan(
                    chunk=chunk,
                    t=self.config.t,
                    n=n,
                    placements={i: csp for i, csp in enumerate(csps)},
                )
            )
        return plans, dedup

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
            if intent_id is not None:
                self.journal.record(
                    intent_id, "share-uploaded", chunk=cid, index=idx,
                    csp=csp, object=chunk_share_object_name(idx, cid),
                )

        def on_giveup(key, csp: str, result: OpResult) -> None:
            if result.quota_exceeded:
                # full, not broken: keep it readable, stop placing new
                # shares there (Section 8)
                self.cloud.mark_write_full(csp)
            elif result.error_type != "CircuitOpenError":
                # genuine provider failure, retries exhausted; an open
                # breaker already embargoes the CSP without a status flip
                self.cloud.mark_failed(csp)

        def pick_alternate(key, failed_csp: str, tried: set[str]) -> str | None:
            cid, idx = key
            plan = outstanding[cid]
            dead = {
                c for c in self.cloud.writable_csps()
                if not self.retry_loop.alternate_is_live(c)
            }
            replacement = self.cloud.replacement_csp(
                cid, holding=plan.placements.values(), exclude=tried | dead
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
        # degraded chunks (t <= stored < n) map to their redundancy
        # debt: the missing share indices and the CSPs that failed them
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
                location = self.chunk_table.get(chunk.id)
                assert location is not None, "dedup chunk missing from table"
                t, n = location.t, location.n
                # dedup chunks inherit whatever fingerprints the table
                # has; pre-digest chunks stay unfingerprinted (their
                # recorded rows must keep matching the stored node)
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
                location = self.chunk_table.get(chunk.id)
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

        Metadata slots are fixed (the name encodes the slot), so there
        is no failing over to an alternate CSP — but transient failures
        are retried in place with backoff, on the same attempt budget
        as share transfers.  Shares go out in the authenticated v2
        envelope; a publish that lands t but not m shares is accepted
        *and* recorded as a metadata repair debt, with the failed
        providers named in metrics and (on abort) in the error.
        """
        frames = self.store.frames_for(node)
        ops = [
            TransferOp(
                kind=OpKind.PUT_META,
                csp_id=provider.csp_id,
                name=obj_name,
                data=blob,
            )
            for provider, obj_name, blob, _index in frames
        ]
        policy = self.retry_loop.policy
        final: dict[int, OpResult] = {}
        pending = list(enumerate(ops))
        for round_no in range(policy.max_attempts):
            if round_no:
                self.engine.sleep(policy.delay(round_no))
            batch = self.engine.execute([op for _, op in pending])
            retry: list[tuple[int, TransferOp]] = []
            obs = getattr(self.engine, "obs", None)
            for (slot, op), res in zip(pending, batch):
                final[slot] = res
                if not res.ok and res.retryable and round_no + 1 < policy.max_attempts:
                    if obs is not None:
                        obs.metrics.inc("cyrus_meta_retries_total",
                                        csp=op.csp_id)
                    retry.append((slot, op))
            pending = retry
            if not pending:
                break
        results = [final[i] for i in range(len(ops))]
        stored = sum(1 for r in results if r.ok)
        failed = [
            (frames[i][0].csp_id, frames[i][3], results[i])
            for i in range(len(ops)) if not results[i].ok
        ]
        obs = getattr(self.engine, "obs", None)
        if obs is not None:
            from repro.metadata.store import META_PUBLISH_FAILURES

            for csp_id, _index, _res in failed:
                obs.metrics.inc(META_PUBLISH_FAILURES, csp=csp_id)
        if stored < self.store.t:
            names = ", ".join(sorted({csp for csp, _i, _r in failed}))
            raise TransferError(
                f"metadata for {node.name!r}: only {stored} shares stored, "
                f"need {self.store.t} (failed providers: {names})"
            )
        if failed and self.ledger is not None:
            # degraded publish: accepted, but short of m-way dispersal —
            # a durable obligation the repair loop re-disperses
            self.ledger.record(
                node.node_id,
                missing=tuple(sorted(index for _c, index, _r in failed)),
                failed_csps=tuple(sorted({csp for csp, _i, _r in failed})),
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
        intent_id = None
        if self.journal is not None:
            # tombstones create no shares, so the intent is pure
            # metadata: roll forward from meta-intent, or nothing to undo
            intent_id = self.journal.begin(
                "delete", name=name, file_id=head.file_id, placements=[],
            )
            self.journal.record(
                intent_id, "meta-intent",
                node=encode_node(node).decode("utf-8"),
            )
        meta_results = self._publish(node)
        if intent_id is not None:
            self.journal.record(intent_id, "meta-published",
                                node_id=node.node_id)
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
