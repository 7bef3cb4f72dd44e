"""A byte-budgeted LRU of verified plaintext chunks, one per client.

A chunk id is the content hash of its bytes, so an entry never goes
stale and the cache needs no invalidation.  Only verified chunks enter,
through one door: the client's own put writes through the chunks it
just chunked and hashed.  The get path reads it to shrink the set of
chunks it fetches; it never stands in for a provider that cannot be
reached.  A re-save's chunker reads a snapshot of it to skip the spans
it already cut; that only places cuts (DESIGN.md, "Chunk cache").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Collection, Sequence

BUDGET_BYTES = 16 * 1024 * 1024

REQUESTS = "cyrus_chunk_cache_requests_total"
EVICTIONS = "cyrus_chunk_cache_evictions_total"
OCCUPANCY = "cyrus_chunk_cache_bytes"


class ChunkCache:
    """Chunk id -> plaintext, evicting least recently used past a budget."""

    def __init__(self, budget_bytes: int = BUDGET_BYTES, metrics=None):
        self.budget_bytes = budget_bytes
        self.bytes = 0
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        # bound once: a lookup runs on every get
        self._requests = self._evictions = self._occupancy = None
        if metrics is not None:
            self._requests = metrics.counter(REQUESTS)
            self._evictions = metrics.counter(EVICTIONS)
            self._occupancy = metrics.gauge(OCCUPANCY)

    def lookup(self, chunk_ids: Collection[str]) -> dict[str, bytes]:
        """The cached subset of ``chunk_ids``, each now most recent."""
        with self._lock:
            hits = {c: self._entries[c] for c in chunk_ids
                    if c in self._entries}
            for chunk_id in hits:
                self._entries.move_to_end(chunk_id)
        if self._requests is not None:
            for outcome, count in (("hit", len(hits)),
                                   ("miss", len(chunk_ids) - len(hits))):
                if count:
                    self._requests.inc(count, outcome=outcome)
        return hits

    def spans(self) -> tuple[bytes, ...]:
        """A snapshot of every cached plaintext, for a put's chunker to
        skip (``ContentDefinedChunker.boundaries``' ``known``); it
        leaves the LRU order and the counters alone."""
        with self._lock:
            return tuple(self._entries.values())

    def admit_edit(self, chunks: Sequence[tuple[str, bytes]], prev) -> None:
        """Insert a version's verified ``(chunk id, plaintext)`` pairs
        (bytes-like payloads are copied) if it is an *edit*: it shares a
        chunk with its predecessor node ``prev`` (None for a new file).
        The edit supersedes ``prev``, so the chunks of ``prev`` it
        replaced are dropped first: the cache holds the versions being
        edited, not their history.  A chunk larger than the whole budget
        is never admitted."""
        if prev is None:
            return
        before = {record.chunk_id for record in prev.chunks}
        after = {chunk_id for chunk_id, _data in chunks}
        if before.isdisjoint(after):
            return
        evicted = 0
        with self._lock:
            for chunk_id in before - after:
                old = self._entries.pop(chunk_id, None)
                if old is not None:
                    self.bytes -= len(old)
                    evicted += 1
            for chunk_id, data in chunks:
                if chunk_id in self._entries:
                    self._entries.move_to_end(chunk_id)
                    continue
                if len(data) > self.budget_bytes:
                    continue
                self._entries[chunk_id] = bytes(data)
                self.bytes += len(data)
                while self.bytes > self.budget_bytes:
                    _, old = self._entries.popitem(last=False)
                    self.bytes -= len(old)
                    evicted += 1
            occupancy = self.bytes
        if self._evictions is not None:
            self._evictions.inc(evicted)
            self._occupancy.set(occupancy)
