"""The CYRUS client: the paper's Table 3 API.

| paper call              | method                                   |
|-------------------------|------------------------------------------|
| ``s = create()``        | :meth:`CyrusClient.create`               |
| ``add(s, c)``           | :meth:`CyrusClient.add_csp`              |
| ``remove(s, c)``        | :meth:`CyrusClient.remove_csp`           |
| ``f' = get(s, f, v)``   | :meth:`CyrusClient.get`                  |
| ``put(s, f)``           | :meth:`CyrusClient.put`                  |
| ``delete(s, f)``        | :meth:`CyrusClient.delete`               |
| ``[(f, r)] = list(s, d)``| :meth:`CyrusClient.list_files`          |
| ``s' = recover(s)``     | :meth:`CyrusClient.recover`              |

A client is one device.  Multiple clients attached to the same provider
set (and key) form one logical CYRUS cloud: they see each other's
uploads after a sync and detect conflicts exactly as Section 5.4
describes.

Failure handling: every client owns (or adopts from its engine) a
:class:`repro.csp.resilient.HealthRegistry` — the shared per-CSP
breaker state consulted by the transfer engine, both pipelines, and
the download selector.  Structured :class:`HealthEvent` records
accumulate in :attr:`CyrusClient.health_events`.  When a read cannot
reach ``t`` providers, :meth:`get` falls back to the local chunk cache
and returns a report explicitly marked ``degraded=True`` (cache entries
are content-addressed, so a degraded read is stale-versioned at worst,
never corrupt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.chunking import ContentDefinedChunker
from repro.core.cloud import CyrusCloud
from repro.core.config import CyrusConfig
from repro.core.downloader import Downloader, DownloadReport
from repro.core.migration import migrate_metadata
from repro.core.sync import SyncReport, SyncService
from repro.core.transfer import DirectEngine, TransferEngine
from repro.core.uploader import Uploader, UploadReport
from repro.csp.base import CloudProvider
from repro.csp.resilient import HealthEvent, HealthRegistry, RetryPolicy
from repro.errors import (
    ConflictError,
    CyrusError,
    InsufficientSharesError,
    MetadataError,
    ShareIntegrityError,
    TransferError,
)
from repro.metadata import (
    GlobalChunkTable,
    MetadataNode,
    MetadataStore,
    MetadataTree,
)
from repro.metadata.conflicts import (
    Conflict,
    conflicted_copy_name,
    detect_conflicts,
    resolution_winner,
)
from repro.obs import Observability, span_if
from repro.util.hashing import sha1_hex


@dataclass(frozen=True)
class FileEntry:
    """One row of ``list(s, d)``: name plus its current head node."""

    name: str
    node: MetadataNode

    @property
    def size(self) -> int:
        return self.node.size

    @property
    def modified(self) -> float:
        return self.node.modified


class CyrusClient:
    """One device's view of a CYRUS cloud."""

    def __init__(
        self,
        cloud: CyrusCloud,
        config: CyrusConfig,
        engine: TransferEngine,
        client_id: str,
        selector=None,
        chunker: ContentDefinedChunker | None = None,
        cache=None,
        health: HealthRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        obs: Observability | None = None,
        journal=None,
        debt_ledger=None,
        admission=None,
        store_factory=None,
    ):
        self.cloud = cloud
        self.config = config
        self.engine = engine
        self.client_id = client_id
        # optional multi-tenant hooks (repro.fleet): ``admission`` is a
        # duck-typed quota gate — ``grant = reserve(client_id, name,
        # size)`` before an upload, ``release(grant)`` if it fails — and
        # ``store_factory(client)`` replaces the default MetadataStore
        # (e.g. with a ShardedMetadataStore routing this tenant's files
        # across metadata CSP groups)
        self.admission = admission
        self._store_factory = store_factory
        # engines built by create() belong to the client — close() shuts
        # them down; an injected engine belongs to its creator
        self._owns_engine = False
        # optional repro.recovery.IntentJournal: when attached, put /
        # delete / gc / migrate are crash-journaled and
        # :meth:`run_recovery` replays whatever a dead process left open
        self.journal = journal
        if journal is not None and getattr(journal, "clock", None) is None:
            journal.clock = engine.clock
        # optional repro.redundancy.DebtLedger: when attached, degraded
        # writes and corrupt shares become durable repair debts that
        # :meth:`repair_debts` (or a SyncDaemon tick) drains
        self.debt_ledger = debt_ledger
        if debt_ledger is not None and getattr(debt_ledger, "clock", None) is None:
            debt_ledger.clock = engine.clock
        self.last_recovery = None
        self.tree = MetadataTree()
        self.chunk_table = GlobalChunkTable()
        self._selector = selector
        self._chunker = chunker
        self.cache = cache  # optional repro.core.cache.ChunkCache
        if health is None:
            health = getattr(engine, "health", None)
        if health is None:
            health = HealthRegistry(clock=engine.clock)
        self.health = health
        # one health view everywhere: the engine gates dispatch on the
        # same breakers the pipelines and selector consult
        self.engine.health = health
        # likewise one observability view: the engine records every op
        # result into it, making its metrics the single source of
        # byte/retry truth for reports, benchmarks and the CLI
        if obs is None:
            obs = getattr(engine, "obs", None)
        if obs is None:
            obs = Observability(clock=engine.clock)
        self.obs = obs
        self.engine.obs = obs
        if self.health.metrics is None:
            self.health.bind_metrics(obs.metrics)
        if self.cache is not None and hasattr(self.cache, "bind_metrics"):
            self.cache.bind_metrics(obs.metrics)
        self._retry_policy = retry_policy
        self.health_events: list[HealthEvent] = []
        self.health.subscribe(self.health_events.append)
        # built after health/obs/ledger so the metadata plane shares the
        # data path's quarantine rules and debt ledger
        self._rebuild_store()
        self._rebuild_pipelines()

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        providers: Sequence[CloudProvider],
        config: CyrusConfig,
        client_id: str = "client-1",
        engine: TransferEngine | None = None,
        clusters=None,
        selector=None,
        chunker: ContentDefinedChunker | None = None,
        cache=None,
        journal=None,
        debt_ledger=None,
        admission=None,
        store_factory=None,
    ) -> "CyrusClient":
        """Table 3's ``create()``: build a cloud over the given CSPs."""
        cloud = CyrusCloud(providers, clusters=clusters)
        owns_engine = engine is None
        if engine is None:
            engine = DirectEngine(
                {p.csp_id: p for p in providers},
                parallelism=config.parallelism,
                max_inflight_per_csp=config.max_inflight_per_csp,
                max_inflight_total=config.max_inflight_total,
            )
        client = cls(
            cloud, config, engine, client_id,
            selector=selector, chunker=chunker, cache=cache,
            journal=journal, debt_ledger=debt_ledger,
            admission=admission, store_factory=store_factory,
        )
        client._owns_engine = owns_engine
        return client

    def _rebuild_store(self) -> None:
        if self._store_factory is not None:
            self.store = self._store_factory(self)
            return
        self.store = MetadataStore(
            self.cloud.metadata_slots(), key=self.config.key,
            t=self.config.meta_t,
            health=self.health, metrics=self.obs.metrics,
            ledger=self.debt_ledger, clock=self.engine.clock,
        )

    def _rebuild_pipelines(self) -> None:
        self.uploader = Uploader(
            cloud=self.cloud, store=self.store, tree=self.tree,
            chunk_table=self.chunk_table, config=self.config,
            engine=self.engine, chunker=self._chunker,
            policy=self._retry_policy, health=self.health,
            journal=self.journal, ledger=self.debt_ledger,
        )
        self.downloader = Downloader(
            cloud=self.cloud, tree=self.tree, chunk_table=self.chunk_table,
            config=self.config, engine=self.engine, selector=self._selector,
            cache=self.cache,
            policy=self._retry_policy, health=self.health,
        )
        self.downloader.journal = self.journal
        self.downloader.ledger = self.debt_ledger
        self.syncer = SyncService(
            store=self.store, tree=self.tree, chunk_table=self.chunk_table,
            engine=self.engine,
        )

    def close(self) -> None:
        """Release the client-owned transfer engine's pool threads.

        Idempotent; only resources the client built itself (via
        ``create()`` or ``__init__`` defaults) are shut down — an
        injected engine belongs to its creator.  The client remains
        usable for serial work afterwards (closed engines fall back to
        the serial path), so ``with`` blocks can be followed by
        diagnostics.
        """
        if self._owns_engine:
            closer = getattr(self.engine, "close", None)
            if callable(closer):
                closer()
            self._owns_engine = False

    def __enter__(self) -> "CyrusClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- membership (Table 3 add / remove) -----------------------------------

    def add_csp(self, provider: CloudProvider) -> None:
        """Attach a new CSP account; existing shares stay put (Section 5.5)."""
        self.cloud.add_csp(provider)
        self.engine.register_provider(provider)
        self._rebuild_store()
        self._rebuild_pipelines()
        # metadata is cheap: replicate it onto the new slot immediately
        migrate_metadata(self.store, self.tree, self.engine)

    def remove_csp(self, csp_id: str) -> None:
        """Detach a CSP; its chunk shares migrate lazily on download."""
        self.cloud.remove_csp(csp_id)
        self.chunk_table.drop_csp(csp_id)
        self._rebuild_store()
        self._rebuild_pipelines()
        migrate_metadata(self.store, self.tree, self.engine)

    # -- data plane (Table 3 put / get / delete / list) ----------------------

    def sync(self) -> SyncReport:
        """Pull remote metadata changes (Section 5.4)."""
        with span_if(self.obs, "sync"):
            return self.syncer.sync()

    def put(self, name: str, data: bytes, sync_first: bool = True) -> UploadReport:
        """Upload a file version (Algorithm 2).

        With an ``admission`` hook attached, the write is first reserved
        against the tenant's quota (raising
        :class:`repro.errors.TenantQuotaError` before any byte is
        dispatched) and the reservation is rolled back if the upload
        fails.
        """
        if sync_first:
            self.sync()
        grant = None
        if self.admission is not None:
            grant = self.admission.reserve(self.client_id, name, len(data))
        try:
            return self.uploader.upload(name, data, client_id=self.client_id)
        except BaseException:
            if grant is not None:
                self.admission.release(grant)
            raise

    def get(
        self, name: str, version: int = 0, sync_first: bool = True
    ) -> DownloadReport:
        """Download a file (Algorithm 3); ``version`` walks history back.

        Degraded mode: when fewer than ``t`` providers are reachable
        (or shares are corrupted beyond repair), the read is served from
        the local chunk cache when every chunk of the requested version
        is cached — the returned report carries ``degraded=True`` and
        the original error is re-raised when the cache cannot cover the
        file.  A read that completes entirely from cache *after a
        failed sync* is marked degraded too: the bytes never touched
        the unreachable cloud, so the version could not be confirmed
        fresh.  A degraded read may be a stale *version* (the failed
        sync could hide newer heads) but never stale *bytes*: cache
        entries are keyed by content hash and re-verified against the
        node.
        """
        sync_failed = False
        if sync_first:
            sync_failed = self._sync_for_read() is None
        node = self.tree.version_at_depth(name, version)
        if node.deleted:
            # the paper lets clients recover deleted files by locating
            # their metadata; get() of a tombstone resolves to the last
            # live version when one exists
            chain = self.tree.history(node.node_id)
            live = next((n for n in chain if not n.deleted), None)
            if live is None:
                raise MetadataError(f"{name!r} has no non-deleted version")
            node = live
        try:
            report = self.downloader.download(node)
        except (InsufficientSharesError, TransferError,
                ShareIntegrityError) as exc:
            # a transient streak can sideline a provider that is in
            # fact up; re-probe before settling for the cache, and
            # retry the download once when anything recovered
            if self.probe_failed_csps():
                try:
                    report = self.downloader.download(node)
                except (InsufficientSharesError, TransferError,
                        ShareIntegrityError) as retry_exc:
                    return self._degraded_get(node, retry_exc)
            else:
                return self._degraded_get(node, exc)
        if (sync_failed and node.chunks and report.bytes_downloaded == 0
                and not report.degraded):
            # served entirely from the chunk cache while the cloud was
            # unreachable: correct bytes, unconfirmed version
            report.degraded = True
            self.obs.metrics.inc("cyrus_degraded_reads_total")
            self.health.emit(
                "degraded_read", csp_id="*",
                detail=(
                    f"{node.name!r}: cache-served read after a failed "
                    f"sync — version could not be confirmed fresh"
                ),
            )
        return report

    def _sync_for_read(self) -> SyncReport | None:
        """Best-effort sync before a read; reads outlive metadata loss."""
        try:
            return self.sync()
        except CyrusError as exc:
            self.health.emit(
                "sync_degraded", csp_id="*",
                detail=f"metadata sync failed, reading local tree: {exc}",
            )
            return None

    def _degraded_get(self, node: MetadataNode, exc: CyrusError) -> DownloadReport:
        """Serve a read entirely from the chunk cache, or re-raise.

        Only possible when every chunk of the version is cached; the
        assembled bytes are verified against the node's content id, so
        the degraded path can never return wrong data — only (at worst)
        a version the failed sync could not refresh.
        """
        if self.cache is None:
            raise exc
        cached: dict[str, bytes] = {}
        for record in node.chunks:
            if record.chunk_id in cached:
                continue
            hit = self.cache.get(record.chunk_id)
            if hit is None:
                raise exc
            cached[record.chunk_id] = hit
        out = bytearray(node.size)
        covered = 0
        for record in node.chunks:
            blob = cached[record.chunk_id]
            if len(blob) != record.size:
                raise exc
            out[record.offset:record.offset + record.size] = blob
            covered += record.size
        data = bytes(out)
        if covered != node.size or sha1_hex(data) != node.file_id:
            raise exc
        self.obs.metrics.inc("cyrus_degraded_reads_total")
        self.health.emit(
            "degraded_read", csp_id="*",
            detail=(
                f"{node.name!r}: served {len(data)} bytes from chunk "
                f"cache after {type(exc).__name__}"
            ),
        )
        now = self.engine.clock.now()
        return DownloadReport(
            data=data, node=node, started=now, finished=now,
            bytes_downloaded=0, degraded=True,
        )

    def get_node(self, node: MetadataNode) -> DownloadReport:
        """Download a specific version node (used for history browsing)."""
        return self.downloader.download(node)

    def get_range(
        self, name: str, offset: int, length: int,
        version: int = 0, sync_first: bool = True,
    ) -> DownloadReport:
        """Download only ``[offset, offset + length)`` of a file.

        Touches only the chunks overlapping the window — cheap random
        access into large files (previews, seeks, partial restores).
        """
        if sync_first:
            self.sync()
        node = self.tree.version_at_depth(name, version)
        return self.downloader.download_range(node, offset, length)

    def delete(self, name: str, sync_first: bool = True) -> UploadReport:
        """Tombstone a file (metadata marked deleted; shares kept)."""
        if sync_first:
            self.sync()
        report = self.uploader.publish_tombstone(name, client_id=self.client_id)
        if self.admission is not None:
            forget = getattr(self.admission, "forget", None)
            if forget is not None:
                forget(self.client_id, name)
        return report

    def list_files(self, directory: str = "", sync_first: bool = True) -> list[FileEntry]:
        """Live files under a directory prefix with their head nodes."""
        if sync_first:
            self.sync()
        out = []
        for name in self.tree.file_names():
            if directory and not name.startswith(directory):
                continue
            out.append(FileEntry(name=name, node=self.tree.latest(name)))
        return out

    def history(self, name: str) -> list[MetadataNode]:
        """Version chain of a file, newest first (Figure 11c)."""
        return self.tree.history(self.tree.latest(name).node_id)

    # -- recovery (Table 3 recover) -------------------------------------------

    def recover(self) -> SyncReport:
        """Rebuild all local state from the CSPs alone.

        A fresh device with only the key and provider list calls this to
        reconstruct the metadata tree and chunk table — nothing about
        the cloud lives anywhere else.
        """
        self.tree = MetadataTree()
        self.chunk_table = GlobalChunkTable()
        self._rebuild_pipelines()
        return self.sync()

    # -- crash recovery & anti-entropy (repro.recovery) ----------------------

    def run_recovery(self):
        """Replay incomplete journal intents from a crashed predecessor.

        Returns the :class:`repro.recovery.RecoveryReport` (also kept
        in :attr:`last_recovery`), or None when no journal is attached.
        Idempotent: a second call finds nothing to replay.
        """
        if self.journal is None:
            return None
        from repro.recovery import recover_client

        self.last_recovery = recover_client(self)
        return self.last_recovery

    def scrub(self, budget_shares: int | None = None, cursor: int = 0,
              repair: bool = True, delete_orphans: bool = False,
              meta_cursor: int = 0, scrub_metadata: bool = True):
        """One anti-entropy pass (or budgeted slice) over the chunk
        table and the metadata plane; returns the
        :class:`repro.recovery.ScrubReport`."""
        from repro.recovery import run_scrub

        return run_scrub(
            self, budget_shares=budget_shares, cursor=cursor,
            repair=repair, delete_orphans=delete_orphans,
            meta_cursor=meta_cursor, scrub_metadata=scrub_metadata,
        )

    def repair_debts(self, budget_shares: int | None = None,
                     sync_first: bool = True):
        """Drain the redundancy-debt ledger (or a budgeted slice of it);
        returns the :class:`repro.redundancy.RepairReport`, or None when
        no ledger is attached.

        ``sync_first`` matters for correctness, not just freshness: the
        repair loop retires a debt whose chunk the table no longer knows
        (the chunk was gc'd), so running it over a never-synced table
        would wrongly retire every debt.  Pass False only when the
        caller just synced (the daemon tick does).
        """
        if self.debt_ledger is None:
            return None
        if sync_first:
            try:
                self.sync()
            except CyrusError:
                pass  # degraded repair: local tables are the best view
        from repro.redundancy import run_repair

        return run_repair(self, budget_shares=budget_shares)

    # -- conflicts -----------------------------------------------------------

    def conflicts(self) -> list[Conflict]:
        """All unresolved conflicts visible in the local tree."""
        return detect_conflicts(self.tree)

    def resolve_conflicts(self) -> list[str]:
        """Keep each conflict's winner; re-label losers as conflicted copies.

        Losers become new first-class files named
        ``"<stem> (conflicted copy <client>).<ext>"`` whose lineage
        chains to the losing node, so no data is discarded.  Returns the
        new names created.
        """
        created: list[str] = []
        for conflict in self.conflicts():
            winner = resolution_winner(self.tree, conflict)
            for node_id in conflict.node_ids:
                if node_id == winner:
                    continue
                loser = self.tree.get(node_id)
                if self.tree.children(node_id):
                    continue  # already superseded; nothing to relabel
                new_name = conflicted_copy_name(loser.name, loser.client_id)
                renamed = MetadataNode(
                    file_id=loser.file_id,
                    prev_id=loser.node_id,
                    client_id=self.client_id,
                    name=new_name,
                    deleted=False,
                    modified=loser.modified,
                    size=loser.size,
                    chunks=loser.chunks,
                    shares=loser.shares,
                )
                self.uploader._publish(renamed)
                self.tree.add(renamed)
                self.chunk_table.record_node(renamed)
                created.append(new_name)
        return created

    def save_local_state(self, path) -> int:
        """Persist the local metadata tree (Section 3.2's local copy).

        Returns the number of nodes written.  On restart,
        :meth:`load_local_state` + :meth:`sync` replaces a full
        :meth:`recover` — only nodes published since the snapshot are
        fetched from the CSPs.
        """
        from repro.metadata.snapshot import save_tree

        return save_tree(self.tree, path)

    def load_local_state(self, path) -> int:
        """Merge a persisted tree snapshot; returns nodes added."""
        from repro.metadata.snapshot import load_tree

        added = load_tree(self.tree, path)
        if added:
            self.chunk_table.rebuild(list(self.tree))
        return added

    def storage_stats(self) -> dict:
        """Logical vs stored bytes and the dedup/redundancy breakdown.

        ``logical`` counts current (non-deleted) head versions;
        ``unique_chunk_bytes`` is what remains after deduplication;
        ``stored_share_bytes`` is what the CSPs actually hold
        (unique bytes times each chunk's n/t expansion).
        """
        logical = sum(
            self.tree.latest(name).size for name in self.tree.file_names()
        )
        unique = 0
        stored = 0
        per_csp: dict[str, int] = {}
        for chunk_id in self.chunk_table.all_chunk_ids():
            location = self.chunk_table.get(chunk_id)
            unique += location.size
            share_size = max(1, -(-location.size // location.t))
            stored += share_size * len(location.placements)
            for _index, csp in location.placements:
                per_csp[csp] = per_csp.get(csp, 0) + share_size
        return {
            "files": len(self.tree.file_names()),
            "versions": len(self.tree.node_ids()),
            "logical_bytes": logical,
            "unique_chunk_bytes": unique,
            "stored_share_bytes": stored,
            "per_csp_bytes": dict(sorted(per_csp.items())),
        }

    def probe_failed_csps(self) -> list[str]:
        """Re-check failed CSPs; mark the responsive ones recovered.

        Section 5.5: "once this occurs, CYRUS periodically checks if the
        failed CSP is back up.  Until that time, no shares are uploaded
        to that CSP."  The probe is a cheap listing; call this on a
        timer (or before large uploads).  Returns the recovered ids.
        """
        from repro.core.cloud import CSPStatus
        from repro.errors import CSPError

        recovered = []
        for csp_id in list(self.cloud.unusable_csps()):
            if self.cloud.status_of(csp_id) is not CSPStatus.FAILED:
                continue  # removed CSPs stay removed
            try:
                self.cloud.provider(csp_id).list(prefix="")
            except CSPError:
                continue
            self.cloud.mark_recovered(csp_id)
            # a successful probe also closes the breaker so the engine
            # resumes dispatching without waiting out the reset timeout
            self.health.record_probe_success(csp_id)
            recovered.append(csp_id)
        return recovered

    # -- maintenance (Section 7.5 extensions) -----------------------------

    def import_object(self, csp_id: str, object_name: str,
                      target_name: str | None = None) -> UploadReport:
        """Adopt a plain object already stored at one provider.

        The trial's most-requested feature after mobile support: the
        object is fetched from the named provider and stored through
        the normal pipeline; the original is left untouched.
        """
        from repro.core.maintenance import import_object

        return import_object(self, csp_id, object_name, target_name)

    def prune_history(self, name: str, keep_versions: int = 1):
        """Drop all but the newest versions of a file's metadata.

        Destructive and uncoordinated — run it only while no other
        client is writing, like ``git gc``.
        """
        from repro.core.maintenance import prune_history

        return prune_history(self.tree, self.store, self.engine, name,
                             keep_versions)

    def collect_garbage(self):
        """Delete chunk shares no remaining version references."""
        from repro.core.maintenance import collect_garbage

        return collect_garbage(self)

    # -- introspection ---------------------------------------------------------

    def require_no_conflicts(self, name: str) -> None:
        """Guard for callers that must not proceed past a conflict."""
        heads = self.tree.heads(name)
        if len(heads) > 1:
            raise ConflictError(
                f"{name!r} has {len(heads)} concurrent heads; resolve first"
            )
