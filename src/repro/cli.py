"""Command-line interface: the open-source counterpart of the prototype UI.

The paper's prototype ships a GUI (Figure 11) listing connected CSP
accounts, stored files, and per-file history.  This CLI exposes the
same surface over persistent on-disk providers
(:class:`repro.csp.LocalDirectoryCSP` — stand-ins for mounted cloud
drives or private storage servers):

    cyrus init  --store ~/.cyrus --key K --csp name=path [...]
    cyrus put   <file> [--as NAME]
    cyrus get   <name> [-o OUT] [--version N]
    cyrus ls    [PREFIX]
    cyrus history <name>
    cyrus rm    <name>
    cyrus conflicts
    cyrus resolve
    cyrus status
    cyrus recover
    cyrus scrub [--budget N] [--no-repair] [--delete-orphans]
    cyrus debts [--json]
    cyrus repair [--budget N]
    cyrus stats [--json]
    cyrus bench [--quick] [--out-dir DIR] [--gate BASELINE]
    cyrus fleet [--tenants N] [--seed S] [--out FLEET_report.json] [--gate]
    cyrus trace (put|get|sync) [...] --out trace.json
    cyrus add-csp name=path
    cyrus remove-csp name

State (provider list, key, coding parameters, client id) lives in a
JSON file under the store directory; all file data and metadata live at
the providers, so ``cyrus init`` against existing provider directories
recovers everything — the Table 3 ``recover()`` call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import uuid
from pathlib import Path

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp.localfs import LocalDirectoryCSP
from repro.errors import CyrusError

CONFIG_NAME = "cyrus.json"


class CLIError(Exception):
    """User-facing CLI failure (bad arguments, missing store)."""


def _parse_csp_spec(spec: str) -> tuple[str, str]:
    name, sep, path = spec.partition("=")
    if not sep or not name or not path:
        raise CLIError(f"--csp must be name=path, got {spec!r}")
    return name, path


def _store_path(args) -> Path:
    return Path(args.store).expanduser()


def load_settings(store: Path) -> dict:
    path = store / CONFIG_NAME
    if not path.exists():
        raise CLIError(
            f"no CYRUS store at {store} (run `cyrus init` first)"
        )
    return json.loads(path.read_text())


#: Clients built during the current command; ``main`` closes them on the
#: way out, so every command shares one teardown path (the engine's pool
#: threads) without per-command boilerplate.
_active_clients: list[CyrusClient] = []


def config_from_settings(settings: dict) -> CyrusConfig:
    return CyrusConfig(
        key=settings["key"],
        t=settings["t"],
        n=settings["n"],
        chunk_min=settings["chunk_min"],
        chunk_avg=settings["chunk_avg"],
        chunk_max=settings["chunk_max"],
        parallelism=settings.get("parallelism", 1),
        max_inflight_per_csp=settings.get("max_inflight_per_csp"),
        max_inflight_total=settings.get("max_inflight_total"),
    )


def build_client(store: Path) -> CyrusClient:
    settings = load_settings(store)
    providers = [
        LocalDirectoryCSP(name, Path(path))
        for name, path in settings["providers"].items()
    ]
    config = config_from_settings(settings)
    from repro.recovery import IntentJournal
    from repro.redundancy import DebtLedger

    client = CyrusClient.create(
        providers, config, client_id=settings["client_id"],
        journal=IntentJournal(store / "journal.jsonl"),
        debt_ledger=DebtLedger(store / "debts.jsonl"),
    )
    # local metadata copy (Section 3.2): start from the cached tree so
    # the sync only fetches nodes published since the last invocation
    cache_path = store / "tree-cache.json"
    try:
        client.load_local_state(cache_path)
    except CyrusError:
        pass  # stale/corrupt cache: fall back to a full sync
    # startup replay: finish or undo whatever a crashed invocation left
    report = client.run_recovery()
    if report is not None and not report.clean:
        print(f"recovery: replayed {report.intents_total} interrupted "
              f"operation(s) ({report.rolled_forward} rolled forward, "
              f"{report.rolled_back} rolled back, "
              f"{report.shares_deleted} orphaned share(s) deleted)")
    client.sync()
    client.save_local_state(cache_path)
    _active_clients.append(client)
    return client


def save_settings(store: Path, settings: dict) -> None:
    store.mkdir(parents=True, exist_ok=True)
    (store / CONFIG_NAME).write_text(json.dumps(settings, indent=2))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_init(args) -> int:
    store = _store_path(args)
    if (store / CONFIG_NAME).exists() and not args.force:
        raise CLIError(f"store already exists at {store} (use --force)")
    csps = dict(_parse_csp_spec(s) for s in args.csp)
    if len(csps) < args.n:
        raise CLIError(
            f"need at least n={args.n} providers, got {len(csps)}"
        )
    settings = {
        "key": args.key,
        "t": args.t,
        "n": args.n,
        "chunk_min": args.chunk_min,
        "chunk_avg": args.chunk_avg,
        "chunk_max": args.chunk_max,
        "parallelism": args.parallelism,
        "max_inflight_per_csp": args.max_inflight_per_csp,
        "max_inflight_total": None,
        "client_id": args.client_id or f"cli-{uuid.uuid4().hex[:8]}",
        "providers": {
            name: str(Path(path).expanduser().resolve())
            for name, path in csps.items()
        },
    }
    # validate before anything is written: a rejected config must not
    # leave a store behind that every later command fails to open
    config_from_settings(settings)
    save_settings(store, settings)
    client = build_client(store)
    existing = client.list_files(sync_first=False)
    print(f"initialised CYRUS store at {store} with {len(csps)} providers "
          f"(t={args.t}, n={args.n})")
    if existing:
        print(f"recovered {len(existing)} existing files from the providers")
    return 0


def cmd_put(args) -> int:
    client = build_client(_store_path(args))
    source = Path(args.file)
    data = source.read_bytes()
    name = args.as_name or source.name
    report = client.put(name, data, sync_first=False)
    if report.unchanged:
        print(f"{name}: unchanged (already at this version)")
    else:
        print(f"{name}: stored {report.node.size:,} bytes as "
              f"{report.new_chunks} new + {report.dedup_chunks} deduplicated "
              f"chunks ({report.bytes_uploaded:,} bytes uploaded)")
    _warn_degraded(report)
    return 0


def _warn_degraded(report) -> None:
    """Surface degraded writes (< n shares placed) from an upload report."""
    degraded = getattr(report, "degraded_chunks", ())
    if degraded:
        print(f"warning: {len(degraded)} chunk(s) stored with fewer than n "
              f"shares (debt recorded; run `cyrus repair` or let the sync "
              f"daemon re-disperse them)")


def cmd_get(args) -> int:
    client = build_client(_store_path(args))
    report = client.get(args.name, version=args.version, sync_first=False)
    out = Path(args.output) if args.output else Path(Path(args.name).name)
    out.write_bytes(report.data)
    suffix = f" (version -{args.version})" if args.version else ""
    print(f"{args.name}{suffix}: {len(report.data):,} bytes -> {out}")
    if report.conflicts:
        print(f"warning: {len(report.conflicts)} unresolved conflict(s) — "
              f"run `cyrus conflicts`")
    if report.migrations:
        print(f"note: migrated {len(report.migrations)} shares to healthy "
              f"providers")
    return 0


def cmd_ls(args) -> int:
    client = build_client(_store_path(args))
    entries = client.list_files(args.prefix or "", sync_first=False)
    if not entries:
        print("(no files)")
        return 0
    width = max(len(e.name) for e in entries)
    for entry in entries:
        versions = len(client.history(entry.name))
        print(f"{entry.name:<{width}}  {entry.size:>12,} bytes  "
              f"{versions} version(s)")
    return 0


def cmd_history(args) -> int:
    client = build_client(_store_path(args))
    chain = client.history(args.name)
    for back, node in enumerate(chain):
        marker = "deleted" if node.deleted else f"{node.size:,} bytes"
        head = " (current)" if back == 0 else ""
        print(f"  -{back}: {node.node_id[:12]}  {marker}  "
              f"by {node.client_id}{head}")
    return 0


def cmd_rm(args) -> int:
    client = build_client(_store_path(args))
    client.delete(args.name, sync_first=False)
    print(f"{args.name}: deleted (history preserved; "
          f"`cyrus get {args.name}` still restores it)")
    return 0


def cmd_conflicts(args) -> int:
    client = build_client(_store_path(args))
    conflicts = client.conflicts()
    if not conflicts:
        print("no conflicts")
        return 0
    for conflict in conflicts:
        print(f"{conflict.kind}: {conflict.name!r} "
              f"({len(conflict.node_ids)} concurrent versions)")
    return 1


def cmd_resolve(args) -> int:
    client = build_client(_store_path(args))
    created = client.resolve_conflicts()
    if created:
        for name in created:
            print(f"preserved losing version as {name!r}")
    else:
        print("nothing to resolve")
    return 0


def cmd_status(args) -> int:
    store = _store_path(args)
    settings = load_settings(store)
    client = build_client(store)
    files = client.list_files(sync_first=False)
    stats = client.storage_stats()
    print(f"store: {store}")
    print(f"coding: t={settings['t']}, n={settings['n']}")
    print(f"files: {len(files)} "
          f"({stats['logical_bytes']:,} logical bytes, "
          f"{stats['unique_chunk_bytes']:,} after dedup, "
          f"{stats['stored_share_bytes']:,} stored with redundancy)")
    print("providers:")
    for name, path in settings["providers"].items():
        root = Path(path)
        if root.exists():
            objects = [p for p in root.iterdir() if p.is_file()]
            stored = sum(p.stat().st_size for p in objects)
            print(f"  {name:<16} {len(objects):>5} objects  "
                  f"{stored:>12,} bytes  {path}")
        else:
            print(f"  {name:<16} MISSING  {path}")
    conflicts = client.conflicts()
    if conflicts:
        print(f"unresolved conflicts: {len(conflicts)}")
    return 0


def cmd_recover(args) -> int:
    """Replay the intent journal (build_client already ran the replay;
    this command surfaces what it did)."""
    client = build_client(_store_path(args))
    report = client.last_recovery
    if report is None or report.clean:
        print("journal clean: no interrupted operations to recover")
        return 0
    print(f"recovered {report.intents_total} interrupted operation(s): "
          f"{report.rolled_forward} rolled forward, "
          f"{report.rolled_back} rolled back, "
          f"{report.meta_republished} metadata node(s) re-published, "
          f"{report.shares_deleted} orphaned share(s) deleted")
    for action in report.actions:
        print(f"  {action}")
    if report.incomplete_remaining:
        print(f"warning: {report.incomplete_remaining} intent(s) could not "
              f"be repaired (provider unreachable?); run `cyrus recover` "
              f"again once providers are back")
        return 1
    return 0


def cmd_scrub(args) -> int:
    client = build_client(_store_path(args))
    report = client.scrub(
        budget_shares=args.budget,
        repair=not args.no_repair,
        delete_orphans=args.delete_orphans,
    )
    print(f"scrub: {report.chunks_scanned}/{report.chunks_total} chunks, "
          f"{report.shares_verified} share(s) verified, "
          f"{report.shares_missing} missing, "
          f"{report.shares_corrupt} corrupt, "
          f"{report.shares_repaired} repaired")
    if report.meta_nodes_scanned:
        print(f"scrub metadata: {report.meta_nodes_scanned} node(s), "
              f"{report.meta_shares_verified} share(s) verified, "
              f"{report.meta_shares_missing} missing, "
              f"{report.meta_shares_corrupt} corrupt, "
              f"{report.meta_debts_recorded} repair debt(s) recorded")
    if report.placements_adopted:
        print(f"adopted {report.placements_adopted} untracked share(s) "
              f"into the chunk table")
    if report.orphans:
        verb = "deleted" if args.delete_orphans else "found"
        print(f"orphan share objects {verb}: {len(report.orphans)}")
        for csp_id, name in report.orphans:
            print(f"  {csp_id}: {name}")
        if not args.delete_orphans:
            print("  (re-run with --delete-orphans to remove them; make "
                  "sure no other client is mid-upload)")
    if report.unreachable_csps:
        print(f"unreachable providers skipped: "
              f"{', '.join(report.unreachable_csps)}")
    if report.budget_exhausted:
        print(f"budget exhausted at cursor {report.cursor}; re-run to "
              f"continue")
    if report.unrecoverable_chunks:
        print(f"ERROR: {len(report.unrecoverable_chunks)} chunk(s) have no "
              f"verifying t-subset of shares:")
        for chunk_id in report.unrecoverable_chunks:
            print(f"  {chunk_id}")
        return 1
    return 0


def cmd_prune(args) -> int:
    client = build_client(_store_path(args))
    report = client.prune_history(args.name, keep_versions=args.keep)
    print(f"{args.name}: pruned {report.nodes_deleted} old version(s), "
          f"kept {report.versions_kept}")
    return 0


def cmd_gc(args) -> int:
    client = build_client(_store_path(args))
    report = client.collect_garbage()
    print(f"garbage collection: {report.chunks_deleted} chunks "
          f"({report.shares_deleted} shares, "
          f"{report.bytes_reclaimed:,} bytes) reclaimed")
    return 0


def cmd_import(args) -> int:
    client = build_client(_store_path(args))
    report = client.import_object(args.provider, args.object,
                                  target_name=args.as_name)
    print(f"imported {args.object!r} from {args.provider} as "
          f"{report.node.name!r} ({report.node.size:,} bytes)")
    return 0


def cmd_sync_dir(args) -> int:
    """Two-way sync of a local directory with the cloud (Section 5.4).

    Local changes are detected mtime-first then by hash (the paper's
    local half of the sync service) and uploaded; remote files missing
    or outdated locally are downloaded.  Conflicts are reported, not
    resolved.
    """
    from repro.core.sync import LocalChangeDetector
    from repro.util.hashing import sha1_hex

    client = build_client(_store_path(args))
    root = Path(args.directory).expanduser()
    root.mkdir(parents=True, exist_ok=True)

    local: dict[str, tuple[float, bytes]] = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = path.relative_to(root).as_posix()
            local[rel] = (path.stat().st_mtime, path.read_bytes())

    uploaded = downloaded = 0
    remote_names = {e.name for e in client.list_files(sync_first=False)}

    # push: every local file whose content differs from the cloud head
    for name, (_mtime, content) in local.items():
        if name in remote_names:
            head = client.tree.latest(name)
            if head.file_id == sha1_hex(content):
                continue
        report = client.put(name, content, sync_first=False)
        if not report.unchanged:
            uploaded += 1
            degraded = len(report.degraded_chunks)
            note = (f"  [{degraded} degraded chunk(s), debt recorded]"
                    if degraded else "")
            print(f"  up   {name} ({len(content):,} bytes){note}")

    # pull: every remote file absent locally (or tombstoned remotely)
    for entry in client.list_files(sync_first=False):
        target = root / entry.name
        if entry.name in local:
            continue
        report = client.get(entry.name, sync_first=False)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(report.data)
        downloaded += 1
        print(f"  down {entry.name} ({len(report.data):,} bytes)")

    conflicts = client.conflicts()
    print(f"sync-dir: {uploaded} uploaded, {downloaded} downloaded"
          + (f", {len(conflicts)} conflict(s) — run `cyrus resolve`"
             if conflicts else ""))
    return 0


def cmd_bench(args) -> int:
    from repro.bench.gate import check_reports, load_baseline
    from repro.bench.harness import run_bench

    out_dir = Path(args.out_dir).expanduser()
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "quick" if args.quick else "full"
    print(f"running {mode} bench (codec + e2e) ...")
    reports = run_bench(quick=args.quick, out_dir=out_dir)
    for kind in sorted(reports):
        metrics = reports[kind]["metrics"]
        print(f"{kind} (BENCH_{kind}.json):")
        for name in sorted(metrics):
            print(f"  {name}: {metrics[name]:.3f}")
    print(f"reports written to {out_dir}")
    if args.gate:
        baseline = load_baseline(args.gate)
        result = check_reports(reports, baseline, tolerance=args.tolerance)
        print(result.describe())
        return 0 if result.passed else 1
    return 0


def cmd_fleet(args) -> int:
    """Run the multi-tenant fleet simulation and write FLEET_report.json.

    Unlike the other commands this touches no on-disk store: the fleet
    is simulated end-to-end (shared netsim links or in-memory CSPs) from
    one seed, so the same invocation always yields the same report.
    """
    from repro.fleet import fleet_gate, run_fleet, write_fleet_report
    from repro.fleet.harness import FleetTopology
    from repro.workloads.fleet import FleetWorkloadSpec

    spec = FleetWorkloadSpec(
        tenants=args.tenants,
        files_per_tenant=args.files_per_tenant,
        ops_per_tenant=args.ops_per_tenant,
        zipf_s=args.zipf_s,
        arrival_rate=args.arrival_rate,
        quota_bytes=args.quota_bytes,
    )
    topology = FleetTopology(
        csps=args.csps,
        meta_groups=args.meta_groups,
        engine=args.engine,
    )
    print(f"fleet: {spec.tenants} tenants x {spec.ops_per_tenant} ops over "
          f"{topology.csps} {topology.engine} CSPs "
          f"({topology.meta_groups} metadata groups, seed {args.seed}) ...")
    started = time.perf_counter()
    result = run_fleet(spec, topology, seed=args.seed)
    wall_s = time.perf_counter() - started
    out = Path(args.out)
    write_fleet_report(result.report, out)
    fleet = result.report["fleet"]
    ops = int(fleet["op_latency"]["count"])
    # host cost goes to stderr: the report stays a function of the seed
    print(f"host: wall_ms_per_op={wall_s / ops * 1e3:.2f} "
          f"ops/s={ops / wall_s:.0f} ({ops} ops in {wall_s:.2f}s)",
          file=sys.stderr)
    sync = fleet["sync_latency"]
    print(f"converged: {fleet['converged_tenants']}/{len(result.tenants)} "
          f"tenants, {fleet['namespace_collisions']} namespace collision(s)")
    print(f"sync latency: p50={sync['p50']:.4f}s p99={sync['p99']:.4f}s "
          f"({sync['count']:.0f} puts, {fleet['sim_time']:.1f}s simulated)")
    print(f"load balance: byte skew {fleet['byte_skew']:.3f}, "
          f"op skew {fleet['op_skew']:.3f} across "
          f"{len(fleet['per_csp_bytes'])} CSPs")
    print(f"report written to {out}")
    if args.gate:
        violations = fleet_gate(result.report, max_skew=args.max_skew)
        if violations:
            print("fleet gate FAILED:")
            for violation in violations:
                print(f"  {violation}")
            return 1
        print(f"fleet gate passed (skew < {args.max_skew})")
    return 0


def cmd_stats(args) -> int:
    """Observability snapshot: op counts, bytes per CSP, health events.

    The metrics cover this invocation's traffic (the sync performed by
    ``build_client`` plus nothing else), so the numbers show what one
    sync actually cost — useful for spotting a provider that is eating
    retries.
    """
    client = build_client(_store_path(args))
    snap = client.obs.snapshot()
    if args.json:
        print(snap.to_json())
        return 0
    ops_by_csp = snap.counter_by("cyrus_ops_total", "csp")
    up = snap.counter_by("cyrus_transfer_bytes_total", "csp", direction="up")
    down = snap.counter_by("cyrus_transfer_bytes_total", "csp",
                           direction="down")
    failures = snap.counter_by("cyrus_op_failures_total", "csp")
    print("per-provider traffic (this invocation's sync):")
    for csp in sorted(ops_by_csp):
        print(f"  {csp:<16} {ops_by_csp[csp]:>6.0f} ops  "
              f"{up.get(csp, 0):>12,.0f} B up  "
              f"{down.get(csp, 0):>12,.0f} B down  "
              f"{failures.get(csp, 0):>4.0f} failures")
    retries = snap.counter_total("cyrus_share_retries_total")
    meta_retries = snap.counter_total("cyrus_meta_retries_total")
    if retries or meta_retries:
        print(f"retries: {retries:.0f} share, {meta_retries:.0f} metadata")
    events = snap.counter_by("cyrus_health_events_total", "kind")
    if events:
        print("health events: " + ", ".join(
            f"{kind}={count:.0f}" for kind, count in sorted(events.items())
        ))
    dispatched = snap.counter_by("cyrus_pool_dispatch_total", "csp")
    if dispatched:
        peaks = snap.gauges.get("cyrus_pool_inflight_peak", {})
        peak_by_csp = {dict(k).get("csp"): v for k, v in peaks.items()}
        total_peak = peak_by_csp.pop("*", 0)
        parallelism = getattr(client.engine, "parallelism", 1)
        print(f"transfer pool: parallelism={parallelism}, "
              f"peak inflight={total_peak:.0f}, "
              f"cancelled={snap.counter_total('cyrus_pool_cancelled_total'):.0f}")
        for csp in sorted(dispatched):
            print(f"  {csp:<16} {dispatched[csp]:>6.0f} dispatched  "
                  f"peak inflight {peak_by_csp.get(csp, 0):>3.0f}")
    degraded = snap.counter_total("cyrus_upload_degraded_chunks_total")
    corrupt = snap.counter_by("cyrus_corrupt_shares_total", "csp")
    open_debts = (len(client.debt_ledger)
                  if client.debt_ledger is not None else 0)
    if degraded or corrupt or open_debts:
        print(f"redundancy: {open_debts} open debt(s), "
              f"{degraded:.0f} degraded chunk write(s) this invocation")
        for csp, count in sorted(corrupt.items()):
            print(f"  {csp:<16} {count:>6.0f} corrupt share(s) detected")
    meta_debts = (sum(1 for e in client.debt_ledger.open_debts()
                      if e.kind == "meta")
                  if client.debt_ledger is not None else 0)
    meta_corrupt = snap.counter_by("cyrus_metadata_corrupt_shares_total",
                                   "csp")
    meta_pub_fail = snap.counter_total("cyrus_metadata_publish_failures_total")
    print(f"metadata health: {meta_debts} open repair debt(s), "
          f"{sum(meta_corrupt.values()):.0f} corrupt share(s), "
          f"{meta_pub_fail:.0f} publish failure(s) this invocation")
    for csp, count in sorted(meta_corrupt.items()):
        print(f"  {csp:<16} {count:>6.0f} corrupt metadata share(s)")
    stats = client.storage_stats()
    print(f"stored: {stats['stored_share_bytes']:,} bytes across "
          f"{len(stats['per_csp_bytes'])} providers")
    return 0


def cmd_debts(args) -> int:
    """List open redundancy debts (chunks stored with fewer than n
    shares, awaiting re-dispersal)."""
    client = build_client(_store_path(args))
    ledger = client.debt_ledger
    debts = ledger.open_debts() if ledger is not None else []
    if args.json:
        print(json.dumps([
            {
                "debt_id": d.debt_id,
                "chunk_id": d.chunk_id,
                "kind": d.kind,
                "missing": list(d.missing),
                "failed_csps": list(d.failed_csps),
                "attempts": d.attempts,
            }
            for d in debts
        ], indent=2))
        return 0
    if not debts:
        print("no open redundancy debts: every chunk has its full n shares")
        return 0
    print(f"{len(debts)} open debt(s):")
    for d in debts:
        suspects = ", ".join(d.failed_csps) or "-"
        what = "metadata node" if d.kind == "meta" else "chunk"
        print(f"  {what} {d.chunk_id[:12]}  missing shares "
              f"{list(d.missing)}  suspects: {suspects}  "
              f"attempts: {d.attempts}")
    print("run `cyrus repair` to re-disperse the missing shares")
    return 1


def cmd_repair(args) -> int:
    """Drain the debt ledger: rebuild missing shares onto healthy
    providers and retire the debts."""
    client = build_client(_store_path(args))
    if client.debt_ledger is None or not len(client.debt_ledger):
        print("no open redundancy debts: nothing to repair")
        return 0
    report = client.repair_debts(budget_shares=args.budget)
    print(f"repair: {report.debts_retired}/{report.debts_seen} debt(s) "
          f"retired, {report.shares_rebuilt} share(s) re-dispersed "
          f"({report.transfers_used} transfer(s) used)")
    if report.debts_deferred:
        print(f"  {report.debts_deferred} debt(s) deferred (backoff not "
              f"elapsed yet)")
    if report.budget_exhausted:
        print(f"  budget exhausted; re-run to continue")
    if report.unrecoverable_chunks:
        print(f"ERROR: {len(report.unrecoverable_chunks)} chunk(s) have no "
              f"verifying t-subset of shares:")
        for chunk_id in report.unrecoverable_chunks:
            print(f"  {chunk_id}")
        return 1
    return 0 if report.drained else 1


def cmd_trace(args) -> int:
    """Run one operation under tracing and dump a Chrome-trace file.

    Open the output in ``chrome://tracing`` (or Perfetto): each provider
    gets its own lane, so parallel share transfers render as the
    paper's Figure 14/17 timelines.
    """
    client = build_client(_store_path(args))
    if args.traced_op == "put":
        source = Path(args.file)
        client.put(args.as_name or source.name, source.read_bytes(),
                   sync_first=False)
    elif args.traced_op == "get":
        client.get(args.name, sync_first=False)
    else:  # sync
        client.sync()
    out = Path(args.out)
    out.write_text(client.obs.tracer.to_chrome_json())
    timeline = client.obs.timeline()
    spans = len(client.obs.tracer.all_spans())
    print(f"wrote {spans} spans to {out} (chrome://tracing)")
    per_csp = timeline.per_csp_bytes()
    if per_csp:
        for csp, nbytes in per_csp.items():
            print(f"  {csp:<16} {nbytes:>12,} bytes")
        print(timeline.render_ascii())
    return 0


def cmd_add_csp(args) -> int:
    store = _store_path(args)
    settings = load_settings(store)
    name, path = _parse_csp_spec(args.csp)
    if name in settings["providers"]:
        raise CLIError(f"provider {name!r} already attached")
    resolved = str(Path(path).expanduser().resolve())
    client = build_client(store)
    client.add_csp(LocalDirectoryCSP(name, Path(resolved)))
    settings["providers"][name] = resolved
    save_settings(store, settings)
    print(f"attached provider {name!r}; metadata replicated onto it")
    return 0


def cmd_remove_csp(args) -> int:
    store = _store_path(args)
    settings = load_settings(store)
    if args.name not in settings["providers"]:
        raise CLIError(f"unknown provider {args.name!r}")
    if len(settings["providers"]) - 1 < settings["n"]:
        raise CLIError(
            f"removing {args.name!r} would leave fewer than n="
            f"{settings['n']} providers"
        )
    client = build_client(store)
    client.remove_csp(args.name)
    del settings["providers"][args.name]
    save_settings(store, settings)
    print(f"detached provider {args.name!r}; shares will migrate lazily "
          f"on download")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyrus",
        description="Client-defined cloud storage over multiple providers.",
    )
    parser.add_argument("--store", default=".cyrus",
                        help="store directory (default: .cyrus)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create (or recover) a store")
    p.add_argument("--key", required=True, help="user key string")
    p.add_argument("--csp", action="append", required=True,
                   metavar="NAME=PATH", help="provider directory (repeat)")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--chunk-min", type=int, default=64 * 1024)
    p.add_argument("--chunk-avg", type=int, default=256 * 1024)
    p.add_argument("--chunk-max", type=int, default=2 * 1024 * 1024)
    p.add_argument("--parallelism", type=int, default=1,
                   help="concurrent transfer ops (1 = serial)")
    p.add_argument("--max-inflight-per-csp", type=int, default=None,
                   help="concurrent ops allowed per provider when parallel")
    p.add_argument("--client-id", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("put", help="upload a file")
    p.add_argument("file")
    p.add_argument("--as", dest="as_name", default=None,
                   help="store under this name")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="download a file")
    p.add_argument("name")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--version", type=int, default=0,
                   help="versions back from latest (default 0)")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("ls", help="list files")
    p.add_argument("prefix", nargs="?", default="")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("history", help="show a file's versions")
    p.add_argument("name")
    p.set_defaults(func=cmd_history)

    p = sub.add_parser("rm", help="delete a file (tombstone)")
    p.add_argument("name")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("conflicts", help="list unresolved conflicts")
    p.set_defaults(func=cmd_conflicts)

    p = sub.add_parser("resolve", help="resolve conflicts")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("status", help="store and provider overview")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "recover",
        help="replay the crash journal (roll interrupted operations "
             "forward or back)",
    )
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "scrub",
        help="verify share existence/integrity and repair damage "
             "(anti-entropy pass)",
    )
    p.add_argument("--budget", type=int, default=None,
                   help="max share transfers this pass (default: unlimited)")
    p.add_argument("--no-repair", action="store_true",
                   help="report damage without re-uploading shares")
    p.add_argument("--delete-orphans", action="store_true",
                   help="delete share objects no chunk references "
                        "(only when no other client is mid-upload)")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("debts", help="list open redundancy debts "
                                     "(chunks stored with < n shares)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable debt list")
    p.set_defaults(func=cmd_debts)

    p = sub.add_parser("repair", help="re-disperse missing shares and "
                                      "retire redundancy debts")
    p.add_argument("--budget", type=int, default=None,
                   help="max share transfers this pass (default: unlimited)")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("sync-dir", help="two-way sync a local directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_sync_dir)

    p = sub.add_parser("prune", help="drop old versions of a file")
    p.add_argument("name")
    p.add_argument("--keep", type=int, default=1,
                   help="versions to keep (default 1)")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("gc", help="reclaim unreferenced chunk shares")
    p.set_defaults(func=cmd_gc)

    p = sub.add_parser("import", help="adopt an object already at a provider")
    p.add_argument("provider")
    p.add_argument("object")
    p.add_argument("--as", dest="as_name", default=None)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("bench", help="measure coding/chunking/e2e throughput "
                                     "and write BENCH_codec.json / BENCH_e2e.json")
    p.add_argument("--quick", action="store_true",
                   help="small payloads (the CI-sized run)")
    p.add_argument("--out-dir", default=".",
                   help="directory for the BENCH_*.json reports")
    p.add_argument("--gate", default=None, metavar="BASELINE",
                   help="exit 1 on regression against this baseline JSON")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the baseline's committed tolerance")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fleet", help="simulate a multi-tenant fleet and "
                                     "write FLEET_report.json")
    p.add_argument("--tenants", type=int, default=32,
                   help="simulated tenants (default 32)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (same seed => identical report)")
    p.add_argument("--csps", type=int, default=6,
                   help="shared CSP accounts (default 6)")
    p.add_argument("--meta-groups", type=int, default=2,
                   help="metadata shard groups (default 2)")
    p.add_argument("--engine", choices=("netsim", "memory"),
                   default="netsim",
                   help="substrate: flow-simulated links or in-memory "
                        "stores (default netsim)")
    p.add_argument("--files-per-tenant", type=int, default=6)
    p.add_argument("--ops-per-tenant", type=int, default=12)
    p.add_argument("--zipf-s", type=float, default=1.1,
                   help="Zipf popularity exponent (default 1.1)")
    p.add_argument("--arrival-rate", type=float, default=0.5,
                   help="Poisson ops/sec per tenant (default 0.5)")
    p.add_argument("--quota-bytes", type=int, default=None,
                   help="per-tenant storage quota (default: unlimited)")
    p.add_argument("--out", default="FLEET_report.json",
                   help="report path (default: FLEET_report.json)")
    p.add_argument("--gate", action="store_true",
                   help="exit 1 unless all tenants converge, p99 is "
                        "finite and load skew stays under --max-skew")
    p.add_argument("--max-skew", type=float, default=2.0,
                   help="per-CSP load skew gate threshold (default 2.0)")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("stats", help="observability snapshot (ops, bytes, "
                                     "retries per provider)")
    p.add_argument("--json", action="store_true",
                   help="full metrics snapshot as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("trace", help="trace one operation to a Chrome-trace "
                                     "file")
    p.add_argument("--out", default="cyrus-trace.json",
                   help="output path (default: cyrus-trace.json)")
    trace_sub = p.add_subparsers(dest="traced_op", required=True)
    tp = trace_sub.add_parser("put", help="trace an upload")
    tp.add_argument("file")
    tp.add_argument("--as", dest="as_name", default=None)
    tp = trace_sub.add_parser("get", help="trace a download")
    tp.add_argument("name")
    tp = trace_sub.add_parser("sync", help="trace a metadata sync")
    for tp in trace_sub.choices.values():
        # SUPPRESS so a child default does not clobber the parent's
        tp.add_argument("--out", default=argparse.SUPPRESS)
        tp.set_defaults(func=cmd_trace)

    p = sub.add_parser("add-csp", help="attach a provider")
    p.add_argument("csp", metavar="NAME=PATH")
    p.set_defaults(func=cmd_add_csp)

    p = sub.add_parser("remove-csp", help="detach a provider")
    p.add_argument("name")
    p.set_defaults(func=cmd_remove_csp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CyrusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # the single teardown path: whatever clients the command built
        while _active_clients:
            _active_clients.pop().close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
