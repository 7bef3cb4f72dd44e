"""Tracing from outside: timing wrappers on the layers' entry points.

No file under ``src/`` knows about this module.  :class:`Tracer` keeps
spans in memory as ``[name, start, end, parent, op_id]`` rows;
``install_*`` replaces public entry points reachable from a live client
(instance attributes, plus a few module-level functions found by
identity in every loaded ``repro`` module) with wrappers that open a
span around the call.  A target that no longer exists is skipped with a
warning and its metric reads 0 — a refactor may cost the benchmark a
column, never a run.

A span's *self time* is its duration minus the part of it covered by
its children (children of one span may overlap when a parallel engine
runs provider calls on pool threads, so the covered part is the union
of their intervals).

The traced pass always runs in a process of its own (see
``perfbench.cli``), so nothing here is ever uninstalled.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import warnings
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class _Layers(dict):
    """name -> row; a name never seen reads as zeros and is not stored."""

    def __missing__(self, name: str) -> dict[str, float]:
        return {"calls": 0, "total_s": 0.0, "self_s": 0.0}


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        #: wrappers record only while this is set (the timed section);
        #: module- and class-level wrappers outlive it
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        # the tracer is built on the load-generating thread; a span
        # opened on a pool thread with nothing open of its own is caused
        # by whatever that thread is blocked in (engine.execute)
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        #: entry points that could not be wrapped (name -> reason)
        self.dropped: dict[str, str] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, new_op: bool = False) -> int:
        """Open a span; ``new_op`` makes it the root of a new operation."""
        if new_op:
            self.op_id += 1
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, after=None,
             new_op: bool = False) -> bool:
        """Replace ``owner.attr`` by a wrapper that records ``span``.

        ``after(result, args, kwargs)`` runs once the span has closed,
        for counts taken at the same boundary; ``new_op`` marks calls
        that are whole operations.  Returns False (and remembers why)
        when the target is missing or cannot be replaced.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            return self.drop(span, f"{owner!r} has no callable {attr!r}")

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = self.begin(span, new_op)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = original
        try:
            setattr(owner, attr, traced)
        except (AttributeError, TypeError) as exc:
            return self.drop(span, f"cannot replace {attr!r}: {exc}")
        return True

    def wrap_function(self, module_name: str, attr: str, span: str,
                      after=None) -> bool:
        """Wrap a module-level function everywhere it was imported by name."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            return self.drop(span, f"{module_name}.{attr} not found")
        holders = [
            (mod, key)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro" or name.startswith("repro."))
            for key, value in list(vars(mod).items())
            if value is original
        ]
        if not self.wrap(module, attr, span, after):
            return False
        traced = getattr(module, attr)
        for mod, key in holders:
            setattr(mod, key, traced)
        return True

    def drop(self, span: str, reason: str) -> bool:
        self.dropped[span] = reason
        warnings.warn(f"perfbench trace: {span} not traced ({reason})",
                      stacklevel=3)
        return False

    # -- analysis -----------------------------------------------------------

    # the analysis below runs once the timed section is over and the
    # spans are final, so each table is computed once

    @functools.cached_property
    def self_times(self) -> list[float]:
        """Self time of every span (duration minus union of its children)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]].append((span[START], span[END]))
        out = []
        for index, span in enumerate(self.spans):
            lo, hi = span[START], span[END]
            covered = 0.0
            cursor = lo
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, cursor), min(end, hi)
                if end > start:
                    covered += end - start
                    cursor = end
            out.append((hi - lo) - covered)
        return out

    @functools.cached_property
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        table = _Layers()
        for span, self_s in zip(self.spans, self.self_times):
            row = table.setdefault(span[NAME], table[span[NAME]])
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += self_s
        return table

    def attributed_share(self, kind: str) -> float:
        """Share of ``op.<kind>`` wall time spent inside any traced layer."""
        root = f"op.{kind}"
        wall = own = 0.0
        for span, self_s in zip(self.spans, self.self_times):
            if span[NAME] == root:
                wall += span[END] - span[START]
                own += self_s
        return 1.0 - own / wall if wall else 0.0

    def overlap_ratio(self) -> float:
        """Sum of provider-call seconds inside ``engine.execute`` over the
        wall time of those executes: 1 = serial, parallelism = the most."""
        execute = {i for i, s in enumerate(self.spans)
                   if s[NAME] == "engine.execute"}
        wall = sum(self.spans[i][END] - self.spans[i][START] for i in execute)
        busy = sum(
            s[END] - s[START] for s in self.spans
            if s[NAME].startswith("csp.") and s[PARENT] in execute
        )
        return busy / wall if wall else 0.0

    def dump(self, path, header: dict) -> None:
        """Write every span plus the per-layer table as one JSON document."""
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = dict(header)
        doc["columns"] = ["name", "start", "end", "parent", "op_id"]
        doc["spans"] = [
            [s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7),
             s[PARENT], s[OP]]
            for s in self.spans
        ]
        doc["layers"] = self.layers
        doc["counts"] = dict(self.counts)
        doc["dropped"] = self.dropped
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")


# -- entry points, by layer ---------------------------------------------------


def install_functions(tracer: Tracer) -> None:
    """Module-level functions: SHA-1 and the selection LP."""
    counts = tracer.counts

    def sha1_after(_result, args, _kwargs):
        counts["hashing.sha1_bytes"] += len(args[0])

    tracer.wrap_function("repro.util.hashing", "sha1_hex", "hashing.sha1",
                         sha1_after)
    tracer.wrap_function("repro.selection.relaxation", "lp_given_bandwidth",
                         "selection.lp")


def install_providers(tracer: Tracer, providers) -> None:
    """Provider primitives, so engine self time excludes the calls it makes."""
    for provider in providers:
        for primitive in ("upload", "download", "list"):
            tracer.wrap(provider, primitive, f"csp.{primitive}")


def install_client(tracer: Tracer, client) -> None:
    """Instance-level entry points of one live client, layer by layer."""
    counts = tracer.counts

    def chunk_after(chunks, args, _kwargs):
        counts["chunking.chunks"] += len(chunks)
        counts["chunking.bytes"] += len(args[0])

    tracer.wrap(client.uploader.chunker, "chunk_bytes", "chunking.chunk",
                chunk_after)

    def lookup_after(hit, _args, _kwargs):
        counts["metadata.dedup_lookups"] += 1
        counts["metadata.dedup_hits"] += bool(hit)

    tracer.wrap(client.chunk_table, "is_stored", "metadata.dedup_lookup",
                lookup_after)
    tracer.wrap(client.cloud, "place_chunk", "hashring.place")
    tracer.wrap(client.downloader.selector, "select", "selection.select")

    dispatched: set[tuple] = set()

    def execute_after(results, args, kwargs):
        for op in args[0] if args else kwargs.get("ops", ()):
            # the same object sent to the same provider twice in one op
            key = (tracer.op_id, op.kind, op.csp_id, op.name)
            counts["engine.retries"] += key in dispatched
            dispatched.add(key)
        counts["engine.ops"] += len(results)
        counts["engine.failed_ops"] += sum(
            1 for r in results if not r.ok and not r.cancelled
        )

    tracer.wrap(client.engine, "execute", "engine.execute", execute_after)

    def sync_after(report, _args, _kwargs):
        counts["metadata.nodes_fetched"] += report.new_nodes

    tracer.wrap(client.syncer, "sync", "metadata.sync", sync_after)

    def frames_after(frames, _args, _kwargs):
        counts["metadata.node_bytes"] += sum(len(f[2]) for f in frames)

    tracer.wrap(client.store, "frames_for", "metadata.publish", frames_after)
    tracer.wrap(client.store, "assembler", "metadata.assemble")

    # the (key, t, n) sharer is cached process-wide, so wrapping the
    # cached object covers uploader and downloader alike
    try:
        from repro.core.uploader import get_sharer

        n = client.config.plan_n(len(client.cloud.active_csps()))
        sharer = get_sharer(client.config.key, client.config.t, n)
    except Exception as exc:  # any refactor of the sharer cache lands here
        tracer.drop("erasure.encode", f"no cached sharer: {exc}")
        sharer = None
    if sharer is not None and not hasattr(sharer.split, "__wrapped__"):
        def encode_after(_shares, args, _kwargs):
            counts["erasure.encode_bytes"] += len(args[0])

        def decode_after(data, _args, _kwargs):
            counts["erasure.decode_bytes"] += len(data)

        tracer.wrap(sharer, "split", "erasure.encode", encode_after)
        tracer.wrap(sharer, "join", "erasure.decode", decode_after)

    journal = getattr(client, "journal", None)
    if journal is not None:
        def append_after(_result, _args, _kwargs):
            counts["journal.appends"] += 1

        def compact_after(removed, _args, _kwargs):
            counts["journal.compactions"] += bool(removed)

        tracer.wrap(journal, "begin", "journal.begin", append_after)
        tracer.wrap(journal, "record", "journal.record", append_after)
        tracer.wrap(journal, "commit", "journal.commit")
        tracer.wrap(journal, "compact", "journal.compact", compact_after)
    ledger = getattr(client, "debt_ledger", None)
    if ledger is not None:
        tracer.wrap(ledger, "record", "ledger.record")


def install_client_class(tracer: Tracer) -> None:
    """Class-level put/get/sync, for clients built inside ``run_fleet``."""
    from repro.core.client import CyrusClient

    tracer.wrap(CyrusClient, "put", "op.put", new_op=True)
    tracer.wrap(CyrusClient, "get", "op.get", new_op=True)
    tracer.wrap(CyrusClient, "sync", "metadata.sync")
