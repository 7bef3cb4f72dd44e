"""The download pipeline — the paper's Algorithm 3.

Resolve the requested version in the (already synced) metadata tree,
build the Section 4.3 selection problem over the version's unique
chunks, pick the t download CSPs per chunk with the configured selector
(health-filtered so breaker-open providers are never chosen), fetch
shares through the shared :class:`repro.core.retry.ShareRetryLoop`
(transient failures back off and retry, permanent ones fail over to the
chunk's remaining CSPs), decode, verify each chunk by id, assemble,
check for conflicts (Section 5.4), and lazily migrate shares stranded
on removed or down CSPs (Section 5.5, Figure 9).  A provider a fetch
gives up on for unavailability has its breaker tripped: it is down
until the breaker half-opens and a probe op gets through, or
``CyrusClient.probe_failed_csps`` finds it back up.

The chunk-id check after decode is the one integrity check a fault-free
read pays: with exactly t shares the decode is an invertible map, so a
corrupt share changes the plaintext and fails the id.  Fetched shares
are used as delivered; only when a chunk fails its id (or its decode
raises) does :meth:`Downloader._repair_chunk` hash them against the
recorded share digests, to blame and drop the ones that lied before it
fetches the rest and searches for a t-subset that verifies.

Before anything is fetched, the ChunkMap must hash to the node's
``file_id`` and tile ``[0, size)`` in order; chunk ids commit to every
byte, so with each chunk checked by id the file needs no hash of its own.

Chunks found in the client's :class:`repro.core.chunkcache.ChunkCache`
skip selection, gather and decode; they are checked by id on the
verification lane like decoded ones, and every other step, the
placement check included, still covers them.  Their shares are not
read, so a lost or corrupt share of a cached chunk is found by scrub,
not by a get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.chunkcache import ChunkCache
from repro.core.cloud import CyrusCloud
from repro.core.config import CyrusConfig
from repro.core.naming import chunk_share_object_name
from repro.core.retry import ShareRetryLoop
from repro.core.transfer import OpKind, OpResult, TransferEngine, TransferOp
from repro.core.uploader import get_sharer
from repro.csp.resilient import HealthRegistry, RetryPolicy
from repro.erasure import Share
from repro.errors import (
    CodingError,
    CyrusError,
    InsufficientSharesError,
    MetadataError,
    SelectionError,
    ShareGatherError,
    ShareIntegrityError,
)
from repro.metadata import MetadataNode, MetadataTree
from repro.metadata.conflicts import Conflict, conflicts_for_node
from repro.obs import span_if
from repro.redundancy.reconcile import (
    Budget,
    ShareMigration,
    assess_chunk,
    reconcile_chunk,
)
from repro.selection import (
    ChunkDownload,
    CyrusSelector,
    DownloadProblem,
    SelectionPlan,
    restrict_to_live,
)
from repro.util.hashing import HashLane, file_id_of, sha1_hex

if TYPE_CHECKING:  # pragma: no cover
    from repro.util.hashing import LaneJob


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
    digests: tuple[str, ...]  # per-index share SHA-1s
    shares: dict[int, bytes] = field(default_factory=dict)
    tried: set[str] = field(default_factory=set)
    decoded: bytes | None = None

    def share_size(self) -> int:
        return max(1, -(-self.size // self.t))

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
        config: CyrusConfig,
        engine: TransferEngine,
        selector=None,
        policy: RetryPolicy | None = None,
        health: HealthRegistry | None = None,
        *,
        cache: ChunkCache,
    ):
        self.cloud = cloud
        self.tree = tree
        self.config = config
        self.engine = engine
        self.selector = selector or CyrusSelector(resolve_every=4)
        if health is None:
            health = engine.health or HealthRegistry(clock=engine.clock)
        self.health = health
        self.retry_loop = ShareRetryLoop(engine, policy=policy,
                                         health=self.health)
        # set by the client so migrations are crash-journaled (optional)
        self.journal = None
        # set by the client so corrupt shares become repair debts
        # (optional repro.redundancy.DebtLedger)
        self.ledger = None
        # the client's chunk cache, read only: a get admits nothing
        self.cache = cache

    # ------------------------------------------------------------------

    def download(self, node: MetadataNode) -> DownloadReport:
        """Fetch and reconstruct the file version described by ``node``."""
        if node.deleted:
            raise MetadataError(
                f"{node.name!r} is deleted at this version; download an "
                f"earlier version from its history"
            )
        started = self.engine.clock.now()
        obs = getattr(self.engine, "obs", None)
        with span_if(obs, "download", file=node.name, size=node.size), \
                HashLane(node.size, getattr(obs, "metrics", None)) as lane:
            _check_chunk_map(node)
            states = self._chunk_states(node)
            plans, share_results, hits = self._read_chunks(states, lane)
            # the cache hits hash on the lane while the file is assembled
            data = self._assemble(node, states)
            if hits is not None:
                lane.join(hits)
            conflicts = tuple(conflicts_for_node(self.tree, node))
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
        the transfer time) of a full download.  The checks are those of
        :meth:`download`: the whole ChunkMap against the file id before
        any fetch, and every chunk read by its id.
        """
        if node.deleted:
            raise MetadataError(f"{node.name!r} is deleted at this version")
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        _check_chunk_map(node)
        end = min(offset + length, node.size)
        started = self.engine.clock.now()
        needed = [
            record
            for record in node.chunks
            if record.offset < end and record.offset + record.size > offset
        ]
        needed_ids = {record.chunk_id for record in needed}
        window_node = MetadataNode(
            file_id=node.file_id,
            prev_id=node.prev_id,
            client_id=node.client_id,
            name=node.name,
            deleted=False,
            modified=node.modified,
            size=node.size,
            chunks=tuple(needed),
            shares=tuple(s for s in node.shares if s.chunk_id in needed_ids),
        )
        obs = getattr(self.engine, "obs", None)
        with span_if(obs, "download", file=node.name, size=node.size,
                     offset=offset, length=length), \
                HashLane(sum(r.size for r in needed),
                         getattr(obs, "metrics", None)) as lane:
            states = self._chunk_states(window_node)
            plans, share_results, hits = self._read_chunks(states, lane)
            # assemble only the window: chunks verify individually by id
            window = bytearray(end - offset if end > offset else 0)
            for record in needed:
                blob = _plaintext(states, record)
                src_lo = max(0, offset - record.offset)
                src_hi = min(record.size, end - record.offset)
                dst = record.offset + src_lo - offset
                window[dst : dst + (src_hi - src_lo)] = blob[src_lo:src_hi]
            if hits is not None:
                lane.join(hits)
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

    def _read_chunks(
        self, states: dict[str, _ChunkState], lane: HashLane,
    ) -> tuple[list[SelectionPlan], list[OpResult], LaneJob | None]:
        """Give every state its plaintext: every fetched chunk selected,
        gathered, decoded and checked by id on ``lane``; cache hits as
        they are, with their id check submitted to ``lane`` as one job,
        returned (None without hits) for the caller to join before it
        hands out any byte.  The op results are the gather's and any
        repair's, so the report counts every share fetched."""
        obs = getattr(self.engine, "obs", None)
        fetch = self._uncached(states)
        hits = [(chunk_id, state.decoded) for chunk_id, state
                in states.items() if chunk_id not in fetch]
        hits_job = lane.submit(
            "chunk", sum(len(blob) for _cid, blob in hits),
            _verify_hits, hits) if hits else None
        with span_if(obs, "select", chunks=len(fetch)):
            plans = self._select(fetch) if fetch else []
        with span_if(obs, "gather"):
            share_results = self._gather(fetch, plans)
        with span_if(obs, "decode"):
            share_results += self._decode_chunks(fetch, lane)
        return plans, share_results, hits_job

    def _chunk_states(self, node: MetadataNode) -> dict[str, _ChunkState]:
        """Unique chunks with their usable share placements.

        Placements come from the node's ShareMap *unioned with* the
        global chunk table — lazy migrations by other clients may have
        added locations the node predates.
        """
        states: dict[str, _ChunkState] = {}
        for record in node.chunks:
            if record.chunk_id in states:
                continue
            placements: dict[int, str] = {}
            for share in node.shares_of(record.chunk_id):
                placements[share.index] = share.csp_id
            table_entry = self.tree.chunk_table.get(record.chunk_id)
            if table_entry is not None:
                for index, csp in table_entry.placements:
                    placements.setdefault(index, csp)
            usable = {
                index: csp
                for index, csp in placements.items()
                if self.health.up(csp, self.cloud)
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
                digests=record.share_digests,
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
            problem = restrict_to_live(problem,
                                       self.health.live(problem.csps))
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

        def on_giveup(key, csp: str, result: OpResult) -> None:
            # an open breaker or a missing object says nothing bad about
            # the provider's *availability*; everything else does
            if result.error_type not in (
                "CircuitOpenError", "ObjectNotFoundError",
            ):
                self.health.trip(csp, result.error or "download failed")

        def pick_alternate(key, failed_csp: str, tried: set[str]) -> str | None:
            state = states[key[0]]
            if len(state.shares) >= state.t:
                return None
            live, suspects = self._holders(
                c for c in sorted(set(state.placements.values()))
                if c not in state.tried
            )
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

    def _holders(self, csps) -> tuple[list[str], list[str]]:
        """Split the member ``csps`` into up ones and corruption
        suspects whose breaker is open (DESIGN.md, "Quarantine is a
        preference", rule 1).

        A corruption-quarantined holder is a last resort, not a lost
        cause: the provider is responsive (it answered with bytes, just
        wrong ones) and every chunk is checked by id before use, so the
        worst it can do is fail that check again — strictly better than
        failing the read while a possibly clean share exists.
        (Widespread rot can quarantine the whole fleet mid-read;
        avoidance is a preference, the chunk-id check is the guarantee.)
        A breaker opened for *unavailability* is never a candidate:
        forcing it is the hammering fail-fast exists to prevent.
        """
        members = [c for c in csps if self.cloud.keeps(c)]
        live = [c for c in members if self.health.up(c, self.cloud)]
        suspects = [c for c in members if c not in live
                    and self.health.corruption_count(c) > 0]
        return live, suspects

    def _note_corruption(self, state: _ChunkState, index: int,
                         csp: str) -> None:
        """Attribute one verified-corrupt share to its provider.

        Emits the ``corrupt_share`` health event (quarantining repeat
        offenders via the registry) and records a repair debt naming the
        provider as a suspect, so the repair loop re-disperses the index
        somewhere it can be trusted.
        """
        detail = f"chunk {state.chunk_id[:8]} share {index}: digest mismatch"
        self.health.record_corruption(csp, detail=detail)
        if self.ledger is not None:
            self.ledger.record(
                state.chunk_id, missing=(index,), failed_csps=(csp,),
            )

    def _assemble(
        self, node: MetadataNode, states: dict[str, _ChunkState]
    ) -> bytes:
        """Join the decoded (or cached) chunks in ChunkMap order.

        :func:`repro.metadata.codec.decode_node` proved the records tile
        ``[0, node.size)`` in order, so the file is built with one copy.
        """
        return b"".join(_plaintext(states, record) for record in node.chunks)

    def _uncached(
        self, states: dict[str, _ChunkState]
    ) -> dict[str, _ChunkState]:
        """The chunks left to fetch once cache hits hold their plaintext."""
        hits = self.cache.lookup(states)
        for chunk_id, blob in hits.items():
            states[chunk_id].decoded = blob
        return {c: s for c, s in states.items() if c not in hits}

    def _decode_chunks(
        self, states: dict[str, _ChunkState], lane: HashLane,
    ) -> list[OpResult]:
        """Decode every fetched chunk once into ``state.decoded``,
        verified by id and repaired if a share lied; returns the ops of
        the repairs.

        Each chunk's id check runs on ``lane`` while the next chunk
        decodes; the verdicts are joined, in order, before any
        plaintext is stored, so every repair happens on the caller.
        """
        obs = getattr(self.engine, "obs", None)
        decoded = []
        for chunk_id, state in states.items():
            sharer = get_sharer(self.config.key, state.t, state.n)
            t0 = obs.clock.now() if obs is not None else 0.0
            try:
                plaintext = sharer.join(_shares_of(state))
            except CodingError:
                plaintext = None  # e.g. a share of the wrong length
            if obs is not None:
                obs.metrics.observe("cyrus_chunk_decode_seconds",
                                    obs.clock.now() - t0)
            check = None if plaintext is None else lane.submit(
                "chunk", len(plaintext), _verify_chunk, chunk_id, plaintext)
            decoded.append((state, sharer, plaintext, check))
        repairs: list[OpResult] = []
        for state, sharer, plaintext, check in decoded:
            if check is None or not lane.join(check):
                # a fetched share is corrupt; blame it, pull the chunk's
                # remaining shares and decode a verifying t-subset
                # (Section 5.1's beyond-secret-sharing error tolerance)
                plaintext, fetched = self._repair_chunk(state, sharer)
                repairs += fetched
            state.decoded = plaintext
        return repairs

    def _repair_chunk(
        self, state: _ChunkState, sharer,
    ) -> tuple[bytes, list[OpResult]]:
        """Recover a chunk whose fetched shares include corrupt ones;
        returns its plaintext and the ops the repair ran.

        First the attribution the fault-free path skips: each fetched
        share is hashed against its recorded digest, and each mismatch
        is blamed on its provider and dropped.  Then the chunk's shares
        not fetched yet are read from its active placements, and the
        search looks for a t-subset whose decode matches the chunk's
        content id.  Tolerates up to ``n - t`` corrupted shares, as the
        paper claims for the non-systematic R-S code, and a recorded
        digest that vouches for a corrupt share (the search needs no
        digest).

        When no subset verifies, every share is suspect (the search
        cannot tell which ones lied), so the repair evicts them all and
        refetches with backoff — a share corrupted in transit (or lost
        to a transient blip) often comes back clean.
        """
        policy = self.retry_loop.policy
        obs = getattr(self.engine, "obs", None)
        if obs is not None:
            obs.metrics.inc("cyrus_chunk_repairs_total")
        # the first round skips every index the gather read, the liars'
        # included: a fresh copy from the same provider proves nothing
        skip = set(state.shares)
        for index, blob in sorted(state.shares.items()):
            if sha1_hex(blob) != state.digests[index]:
                self._note_corruption(state, index, state.placements[index])
                del state.shares[index]
        results: list[OpResult] = []
        last_exc: CyrusError | None = None
        for round_no in range(policy.max_attempts):
            if round_no:
                self.engine.sleep(policy.delay(round_no))
                skip = set()
            results.extend(self._fetch_rest(state, skip))
            try:
                return sharer.join_verified(
                    _shares_of(state),
                    verify=lambda plaintext: _verify_chunk(
                        state.chunk_id, plaintext),
                ), results
            except CyrusError as exc:
                last_exc = exc
                state.shares.clear()
        raise ShareIntegrityError(
            f"chunk {state.chunk_id[:8]}: corrupted beyond repair "
            f"({last_exc})"
        ) from last_exc

    def _fetch_rest(self, state: _ChunkState,
                    skip: set[int]) -> list[OpResult]:
        """Read into ``state.shares`` every share of the chunk not held
        and not in ``skip``, from live holders; corruption suspects are
        forced only when the live ones cannot make up t shares."""
        wanted = [
            (index, csp) for index, csp in sorted(state.placements.items())
            if index not in state.shares and index not in skip
        ]
        live, suspects = self._holders({csp for _i, csp in wanted})
        if len(state.shares) + len(live) < state.t:
            live += suspects
        fetch = [(index, csp) for index, csp in wanted if csp in live]
        results = self.engine.execute([
            TransferOp(
                kind=OpKind.GET,
                csp_id=csp,
                name=chunk_share_object_name(index, state.chunk_id),
                size=state.share_size(),
                chunk_id=state.chunk_id,
                force_dispatch=not self.retry_loop.alternate_is_live(csp),
            )
            for index, csp in fetch
        ]) if fetch else []
        for (index, _csp), result in zip(fetch, results):
            if result.ok:
                state.shares[index] = result.data
        return results

    def _migrate(self, states: dict[str, _ChunkState]) -> list[ShareMigration]:
        """Figure 9: re-home shares stranded on unusable CSPs, from the
        plaintext this read already holds (no share is fetched)."""
        migrations: list[ShareMigration] = []
        for chunk_id, state in states.items():
            if state.decoded is None or chunk_id not in self.tree.chunk_table:
                continue
            # the downloader holds every handle a reconcile reads: cloud,
            # chunk table, health, config and engine
            owed = assess_chunk(self, chunk_id)
            if owed.regenerate:
                migrations.extend(reconcile_chunk(
                    owed, self.journal, Budget(None),
                    plaintext=state.decoded).moved)
        return migrations


def _check_chunk_map(node: MetadataNode) -> None:
    """Fail closed, before any fetch, on a ChunkMap that does not hash
    to the node's file id (``decode_node`` checked that it tiles)."""
    if file_id_of(node.size, (r.chunk_id for r in node.chunks)) \
            != node.file_id:
        raise MetadataError(
            f"{node.name!r}: ChunkMap does not match its file id")


def _plaintext(states: dict[str, _ChunkState], record) -> bytes:
    """A record's decoded (or cached) bytes, as long as it says."""
    blob = states[record.chunk_id].decoded
    if len(blob) != record.size:
        raise ShareIntegrityError(
            f"chunk {record.chunk_id[:8]} decoded to {len(blob)} "
            f"bytes, ChunkMap says {record.size}"
        )
    return blob


def _shares_of(state: _ChunkState) -> list[Share]:
    """The shares a state holds, in index order, ready to decode."""
    return [
        Share(index=i, data=blob, t=state.t, n=state.n,
              chunk_size=state.size)
        for i, blob in sorted(state.shares.items())
    ]


def _verify_chunk(chunk_id: str, plaintext: bytes) -> bool:
    """The chunk-id check of one decode (a lane job)."""
    return sha1_hex(plaintext) == chunk_id


def _verify_hits(hits: list[tuple[str, bytes]]) -> None:
    """The id check of every cache hit of a read (one lane job): a
    wrong entry fails the read."""
    for chunk_id, plaintext in hits:
        if not _verify_chunk(chunk_id, plaintext):
            raise ShareIntegrityError(
                f"cached chunk {chunk_id[:8]} does not match its content id"
            )
