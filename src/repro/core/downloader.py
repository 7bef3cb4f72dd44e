"""The download pipeline — the paper's Algorithm 3.

Resolve the requested version in the (already synced) metadata tree,
build the Section 4.3 selection problem over the version's unique
chunks, pick the t download CSPs per chunk with the configured selector
(health-filtered so breaker-open providers are never chosen), fetch
shares through the shared :class:`repro.core.retry.ShareRetryLoop`
(transient failures back off and retry, permanent ones fail over to the
chunk's remaining CSPs), decode, assemble, verify content hash, check
for conflicts (Section 5.4), and lazily migrate shares stranded on
removed/failed CSPs (Section 5.5, Figure 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.cloud import CSPStatus, CyrusCloud
from repro.core.config import CyrusConfig
from repro.core.migration import ShareMigration, migrate_chunk_shares
from repro.core.naming import chunk_share_object_name
from repro.core.retry import ShareRetryLoop
from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.core.uploader import get_sharer
from repro.csp.resilient import HealthRegistry, RetryPolicy
from repro.erasure import Share
from repro.errors import (
    CyrusError,
    InsufficientSharesError,
    MetadataError,
    SelectionError,
    ShareGatherError,
    ShareIntegrityError,
)
from repro.metadata import GlobalChunkTable, MetadataNode, MetadataTree
from repro.metadata.conflicts import Conflict, conflicts_for_node
from repro.obs import span_if
from repro.selection import (
    ChunkDownload,
    CyrusSelector,
    DownloadProblem,
    SelectionPlan,
    restrict_to_live,
)
from repro.util.hashing import sha1_hex


@dataclass
class DownloadReport:
    """What one get() returned and what it cost."""

    data: bytes = field(repr=False)
    node: MetadataNode
    started: float
    finished: float
    bytes_downloaded: int
    plans: tuple[SelectionPlan, ...] = ()
    conflicts: tuple[Conflict, ...] = ()
    migrations: tuple[ShareMigration, ...] = ()
    share_results: tuple[OpResult, ...] = ()
    #: True when the bytes came from the local chunk cache because
    #: fewer than t providers were reachable (possibly a stale version,
    #: never stale bytes — content hashes are re-verified)
    degraded: bool = False

    @property
    def duration(self) -> float:
        return self.finished - self.started


@dataclass
class _ChunkState:
    chunk_id: str
    size: int
    t: int
    n: int
    placements: dict[int, str]  # index -> csp (usable only)
    digests: tuple[str, ...] = ()  # per-index share SHA-1s (may be empty)
    shares: dict[int, bytes] = field(default_factory=dict)
    tried: set[str] = field(default_factory=set)
    decoded: bytes | None = None

    def share_size(self) -> int:
        return max(1, -(-self.size // self.t))

    def digest_of(self, index: int) -> str | None:
        if not self.digests or not 0 <= index < self.n:
            return None
        return self.digests[index]

    def index_at(self, csp: str) -> int:
        for index, holder in sorted(self.placements.items()):
            if holder == csp:
                return index
        raise SelectionError(f"no share of {self.chunk_id[:8]} at {csp}")


class Downloader:
    """Executes Algorithm 3 against a cloud + metadata tree."""

    def __init__(
        self,
        cloud: CyrusCloud,
        tree: MetadataTree,
        chunk_table: GlobalChunkTable,
        config: CyrusConfig,
        engine: TransferEngine,
        selector=None,
        retry_rounds: int = 2,
        lazy_migration: bool = True,
        cache=None,
        policy: RetryPolicy | None = None,
        health: HealthRegistry | None = None,
    ):
        self.cloud = cloud
        self.tree = tree
        self.chunk_table = chunk_table
        self.config = config
        self.engine = engine
        self.selector = selector or CyrusSelector(resolve_every=4)
        self.lazy_migration = lazy_migration
        self.cache = cache  # optional repro.core.cache.ChunkCache
        if policy is None:
            policy = RetryPolicy(max_attempts=retry_rounds + 1)
        self.retry_loop = ShareRetryLoop(
            engine, policy=policy,
            health=health if health is not None else engine.health,
        )
        # set by the client so migrations can persist (optional)
        self.store = None
        # set by the client so migrations are crash-journaled (optional)
        self.journal = None
        # set by the client so corrupt shares become repair debts
        # (optional repro.redundancy.DebtLedger)
        self.ledger = None

    # ------------------------------------------------------------------

    def download(self, node: MetadataNode) -> DownloadReport:
        """Fetch and reconstruct the file version described by ``node``."""
        if node.deleted:
            raise MetadataError(
                f"{node.name!r} is deleted at this version; download an "
                f"earlier version from its history"
            )
        started = self.engine.clock.now()
        cached: dict[str, bytes] = {}
        if self.cache is not None:
            for record in node.chunks:
                if record.chunk_id in cached:
                    continue
                hit = self.cache.get(record.chunk_id)
                if hit is not None:
                    cached[record.chunk_id] = hit
        obs = getattr(self.engine, "obs", None)
        with span_if(obs, "download", file=node.name, size=node.size):
            states = self._chunk_states(node, skip=set(cached))
            with span_if(obs, "select", chunks=len(states)):
                plans = self._select(states) if states else []
            with span_if(obs, "gather"):
                share_results = self._gather(states, plans)
            with span_if(obs, "decode"):
                data = self._assemble(node, states, cached)
            if sha1_hex(data) != node.file_id:
                raise ShareIntegrityError(
                    f"reconstructed {node.name!r} does not match its content id"
                )
            conflicts = tuple(conflicts_for_node(self.tree, node))
            migrations: list[ShareMigration] = []
            if self.lazy_migration:
                migrations = self._migrate(states)
        finished = self.engine.clock.now()
        downloaded = sum(r.op.payload_size() for r in share_results if r.ok)
        return DownloadReport(
            data=data,
            node=node,
            started=started,
            finished=finished,
            bytes_downloaded=downloaded,
            plans=tuple(plans),
            conflicts=conflicts,
            migrations=tuple(migrations),
            share_results=tuple(share_results),
        )

    def download_range(
        self, node: MetadataNode, offset: int, length: int
    ) -> DownloadReport:
        """Fetch only the bytes in ``[offset, offset + length)``.

        The ChunkMap records each chunk's offset and size, so a ranged
        read touches only the chunks overlapping the window — for a
        small read out of a large file, a fraction of the shares (and
        the transfer time) of a full download.  Per-chunk integrity is
        still verified (chunk ids are content hashes); the whole-file
        hash cannot be checked without the whole file, which is the
        point of the ranged read.
        """
        if node.deleted:
            raise MetadataError(f"{node.name!r} is deleted at this version")
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        end = min(offset + length, node.size)
        started = self.engine.clock.now()
        needed = [
            record
            for record in node.chunks
            if record.offset < end and record.offset + record.size > offset
        ]
        window_node = MetadataNode(
            file_id=node.file_id,
            prev_id=node.prev_id,
            client_id=node.client_id,
            name=node.name,
            deleted=False,
            modified=node.modified,
            size=node.size,
            chunks=tuple(needed),
            shares=tuple(
                s for s in node.shares
                if s.chunk_id in {r.chunk_id for r in needed}
            ),
        )
        cached: dict[str, bytes] = {}
        if self.cache is not None:
            for record in needed:
                hit = self.cache.get(record.chunk_id)
                if hit is not None:
                    cached[record.chunk_id] = hit
        obs = getattr(self.engine, "obs", None)
        with span_if(obs, "download", file=node.name, size=node.size,
                     offset=offset, length=length):
            states = self._chunk_states(window_node, skip=set(cached))
            with span_if(obs, "select", chunks=len(states)):
                plans = self._select(states) if states else []
            with span_if(obs, "gather"):
                share_results = self._gather(states, plans)
            with span_if(obs, "decode"):
                # assemble only the window: chunks verify individually by id
                decoded = self._decode_chunks(states, cached)
                window = bytearray(end - offset if end > offset else 0)
                for record in needed:
                    blob = decoded[record.chunk_id]
                    src_lo = max(0, offset - record.offset)
                    src_hi = min(record.size, end - record.offset)
                    dst = record.offset + src_lo - offset
                    window[dst : dst + (src_hi - src_lo)] = blob[src_lo:src_hi]
        finished = self.engine.clock.now()
        return DownloadReport(
            data=bytes(window),
            node=node,
            started=started,
            finished=finished,
            bytes_downloaded=sum(
                r.op.payload_size() for r in share_results if r.ok
            ),
            plans=tuple(plans),
            conflicts=(),
            migrations=(),
            share_results=tuple(share_results),
        )

    # ------------------------------------------------------------------

    def _chunk_states(
        self, node: MetadataNode, skip: set[str] = frozenset()
    ) -> dict[str, _ChunkState]:
        """Unique chunks with their usable share placements.

        Placements come from the node's ShareMap *unioned with* the
        global chunk table — lazy migrations by other clients may have
        added locations the node predates.  Chunks in ``skip`` (cache
        hits) need no network state.
        """
        states: dict[str, _ChunkState] = {}
        for record in node.chunks:
            if record.chunk_id in states or record.chunk_id in skip:
                continue
            placements: dict[int, str] = {}
            for share in node.shares_of(record.chunk_id):
                placements[share.index] = share.csp_id
            digests = record.share_digests
            table_entry = self.chunk_table.get(record.chunk_id)
            if table_entry is not None:
                for index, csp in table_entry.placements:
                    placements.setdefault(index, csp)
                if not digests:
                    # a newer node of another file may have fingerprinted
                    # this (deduped) chunk even if ours predates digests
                    digests = table_entry.share_digests
            active = set(self.cloud.active_csps())
            usable = {
                index: csp
                for index, csp in placements.items()
                if csp in active and self.retry_loop.alternate_is_live(csp)
            }
            if len({csp for csp in usable.values()}) < record.t:
                raise InsufficientSharesError(
                    f"chunk {record.chunk_id[:8]}: shares reachable on "
                    f"{sorted(set(usable.values()))}, need {record.t} CSPs"
                )
            states[record.chunk_id] = _ChunkState(
                chunk_id=record.chunk_id,
                size=record.size,
                t=record.t,
                n=record.n,
                placements=usable,
                digests=digests,
            )
        return states

    def _select(self, states: dict[str, _ChunkState]) -> list[SelectionPlan]:
        """Run the selector, grouping chunks by their threshold t."""
        caps = self.engine.link_caps("down")
        client_cap = self.engine.client_cap("down")
        if math.isinf(client_cap):
            client_cap = max(sum(caps.values()), 1.0)
        by_t: dict[int, list[_ChunkState]] = {}
        for state in states.values():
            by_t.setdefault(state.t, []).append(state)
        health = self.retry_loop.health
        plans = []
        for t, members in sorted(by_t.items()):
            problem = DownloadProblem(
                chunks=tuple(
                    ChunkDownload(
                        chunk_id=s.chunk_id,
                        share_size=s.share_size(),
                        available=tuple(sorted(set(s.placements.values()))),
                    )
                    for s in members
                ),
                t=t,
                link_caps=caps,
                client_cap=client_cap,
            )
            if health is not None:
                problem = restrict_to_live(
                    problem, health.live(problem.csps)
                )
            plans.append(self.selector.select(problem))
        return plans

    def _gather(
        self,
        states: dict[str, _ChunkState],
        plans: list[SelectionPlan],
    ) -> list[OpResult]:
        """Fetch t shares per chunk via the shared retry loop.

        Each selected (chunk, CSP) pair is one loop item: transient GET
        failures retry the same provider with backoff; exhausted or
        permanently-failed providers fail over to the chunk's remaining
        live placements.
        """

        def build_op(key, csp: str) -> TransferOp:
            state = states[key[0]]
            return TransferOp(
                kind=OpKind.GET,
                csp_id=csp,
                name=chunk_share_object_name(
                    state.index_at(csp), state.chunk_id
                ),
                size=state.share_size(),
                chunk_id=state.chunk_id,
                # a non-live target can only be pick_alternate's
                # last-resort choice (initial selection and same-provider
                # retries are both health-gated): push past the open
                # breaker for that one deliberate attempt
                force_dispatch=not self.retry_loop.alternate_is_live(csp),
            )

        def on_success(key, csp: str, result: OpResult) -> None:
            state = states[key[0]]
            state.shares[state.index_at(csp)] = result.data

        def verify(key, csp: str, result: OpResult) -> bool:
            # Byzantine defense: check the share against its recorded
            # fingerprint *before* it can poison the decode.  Nodes
            # written before fingerprints existed have no digest and
            # fall through to the post-decode t-subset search.
            state = states[key[0]]
            index = state.index_at(csp)
            expected = state.digest_of(index)
            if expected is None or sha1_hex(result.data) == expected:
                return True
            self._note_corruption(state, index, csp)
            return False

        def on_giveup(key, csp: str, result: OpResult) -> None:
            # an open breaker, a missing object, or a corrupt payload
            # says nothing bad about the provider's *availability*
            # (corruption is the quarantine path's business); everything
            # else does
            if result.error_type not in (
                "CircuitOpenError", "ObjectNotFoundError",
                "ShareIntegrityError",
            ):
                self.cloud.mark_failed(csp)

        def pick_alternate(key, failed_csp: str, tried: set[str]) -> str | None:
            state = states[key[0]]
            if len(state.shares) >= state.t:
                return None
            holders = [
                c
                for c in sorted(set(state.placements.values()))
                if c not in state.tried
                and self.cloud.status_of(c) is CSPStatus.ACTIVE
            ]
            live = [
                c for c in holders if self.retry_loop.alternate_is_live(c)
            ]
            # corruption-quarantined holders are a last resort, not a
            # lost cause: the provider is responsive (it answered with
            # bytes, just wrong ones) and every share is digest-verified
            # before use, so the worst it can do is fail verification
            # again — strictly better than failing the read while a
            # possibly clean share exists.  (Widespread rot can
            # quarantine the whole fleet mid-gather; avoidance is a
            # preference, the verify hook is the guarantee.)  Breakers
            # opened for *unavailability* stay respected: forcing those
            # is the hammering fail-fast exists to prevent.
            health = self.retry_loop.health
            suspects = [] if health is None else [
                c for c in holders if health.corruption_count(c) > 0
            ]
            pool = live or suspects
            if not pool:
                return None
            chosen = pool[0]
            state.tried.add(chosen)
            return chosen

        items = []
        for plan in plans:
            for chunk_id, csps in plan.assignments.items():
                state = states[chunk_id]
                for slot, csp in enumerate(csps):
                    state.tried.add(csp)
                    items.append(((chunk_id, slot), csp))
        all_results, attempts = self.retry_loop.run(
            items, build_op, on_success, on_giveup, pick_alternate,
            verify=verify,
        )
        for state in states.values():
            if len(state.shares) < state.t:
                history = [
                    attempt
                    for (chunk_id, _slot), tries in sorted(attempts.items())
                    if chunk_id == state.chunk_id
                    for attempt in tries
                ]
                failures = [a for a in history if not a.ok]
                raise ShareGatherError(
                    f"chunk {state.chunk_id[:8]}: fetched "
                    f"{len(state.shares)} shares, need {state.t} "
                    f"({len(history)} attempts: "
                    f"{'; '.join(str(a) for a in failures)})",
                    attempts=history,
                )
        return all_results

    def _note_corruption(self, state: _ChunkState, index: int,
                         csp: str) -> None:
        """Attribute one verified-corrupt share to its provider.

        Emits the ``corrupt_share`` health event (quarantining repeat
        offenders via the registry) and records a repair debt naming the
        provider as a suspect, so the repair loop re-disperses the index
        somewhere it can be trusted.
        """
        detail = f"chunk {state.chunk_id[:8]} share {index}: digest mismatch"
        health = self.retry_loop.health
        if health is not None:
            health.record_corruption(csp, detail=detail)
        else:
            obs = getattr(self.engine, "obs", None)
            if obs is not None:
                obs.metrics.inc("cyrus_corrupt_shares_total", csp=csp)
        if self.ledger is not None:
            self.ledger.record(
                state.chunk_id, missing=(index,), failed_csps=(csp,),
            )

    def _assemble(
        self,
        node: MetadataNode,
        states: dict[str, _ChunkState],
        cached: dict[str, bytes] | None = None,
    ) -> bytes:
        """Decode each unique chunk once and join them in ChunkMap order.

        The records must tile ``[0, node.size)`` in order (the uploader
        writes them that way), so the file is built with one copy.
        """
        decoded = self._decode_chunks(states, cached)
        parts: list[bytes] = []
        covered = 0
        for record in node.chunks:
            blob = decoded[record.chunk_id]
            if len(blob) != record.size:
                raise ShareIntegrityError(
                    f"chunk {record.chunk_id[:8]} decoded to {len(blob)} "
                    f"bytes, ChunkMap says {record.size}"
                )
            if record.offset != covered:
                raise MetadataError(
                    f"ChunkMap record at offset {record.offset} does not "
                    f"follow the {covered} bytes before it"
                )
            parts.append(blob)
            covered += record.size
        if covered != node.size:
            raise MetadataError(
                f"ChunkMap covers {covered} bytes of a {node.size}-byte file"
            )
        return b"".join(parts)

    def _decode_chunks(
        self,
        states: dict[str, _ChunkState],
        cached: dict[str, bytes] | None = None,
    ) -> dict[str, bytes]:
        """Plaintext per chunk id: cache hits plus every fetched chunk,
        decoded once, verified by id and repaired if a share lied."""
        decoded: dict[str, bytes] = dict(cached or {})
        obs = getattr(self.engine, "obs", None)
        for chunk_id, state in states.items():
            sharer = get_sharer(self.config.key, state.t, state.n)
            shares = [
                Share(index=i, data=blob, t=state.t, n=state.n,
                      chunk_size=state.size)
                for i, blob in sorted(state.shares.items())
            ]
            t0 = obs.clock.now() if obs is not None else 0.0
            plaintext = sharer.join(shares)
            if obs is not None:
                obs.metrics.observe("cyrus_chunk_decode_seconds",
                                    obs.clock.now() - t0)
            if sha1_hex(plaintext) != chunk_id:
                # a fetched share is corrupt; pull the chunk's remaining
                # shares and decode a verifying t-subset (Section 5.1's
                # beyond-secret-sharing error tolerance)
                plaintext = self._repair_chunk(state, sharer)
            decoded[chunk_id] = plaintext
            state.decoded = plaintext
            if self.cache is not None:
                self.cache.put(chunk_id, plaintext)
        return decoded

    def _repair_chunk(self, state: _ChunkState, sharer) -> bytes:
        """Recover a chunk whose fetched shares include corrupt ones.

        Fetches every remaining share of the chunk from active
        placements, then searches for a t-subset whose decode matches
        the chunk's content id.  Tolerates up to ``n - t`` corrupted
        shares, as the paper claims for the non-systematic R-S code.

        When no subset verifies, every fetched share is suspect (the
        search cannot tell which ones lied), so the repair evicts them
        all and refetches with backoff — a share corrupted in transit
        (or lost to a transient blip) often comes back clean.
        """
        policy = self.retry_loop.policy
        obs = getattr(self.engine, "obs", None)
        if obs is not None:
            obs.metrics.inc("cyrus_chunk_repairs_total")
        last_exc: CyrusError | None = None
        for round_no in range(policy.max_attempts):
            if round_no:
                self.engine.sleep(policy.delay(round_no))
            missing = [
                (index, csp)
                for index, csp in sorted(state.placements.items())
                if index not in state.shares
            ]
            if missing:
                ops = [
                    TransferOp(
                        kind=OpKind.GET,
                        csp_id=csp,
                        name=chunk_share_object_name(index, state.chunk_id),
                        size=state.share_size(),
                        chunk_id=state.chunk_id,
                    )
                    for index, csp in missing
                ]
                for (index, _csp), result in zip(
                    missing, self.engine.execute(ops)
                ):
                    if result.ok:
                        state.shares[index] = result.data
            shares = [
                Share(index=i, data=blob, t=state.t, n=state.n,
                      chunk_size=state.size)
                for i, blob in sorted(state.shares.items())
            ]
            try:
                return sharer.join_verified(
                    shares,
                    verify=lambda plaintext: sha1_hex(plaintext)
                    == state.chunk_id,
                )
            except CyrusError as exc:
                last_exc = exc
                state.shares.clear()
        raise ShareIntegrityError(
            f"chunk {state.chunk_id[:8]}: corrupted beyond repair "
            f"({last_exc})"
        ) from last_exc

    def _migrate(self, states: dict[str, _ChunkState]) -> list[ShareMigration]:
        """Figure 9: re-home shares stranded on unusable CSPs."""
        migrations: list[ShareMigration] = []
        for chunk_id, state in states.items():
            location = self.chunk_table.get(chunk_id)
            if location is None:
                continue
            data = getattr(state, "decoded", None)
            if data is None:
                continue
            migrations.extend(
                migrate_chunk_shares(
                    chunk_data=data,
                    location=location,
                    cloud=self.cloud,
                    chunk_table=self.chunk_table,
                    engine=self.engine,
                    key=self.config.key,
                    journal=self.journal,
                )
            )
        return migrations
