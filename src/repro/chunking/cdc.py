"""Content-defined chunker.

Boundaries are declared where a rolling hash of the trailing ``window``
bytes satisfies ``hash mod M == K`` (paper Section 5.1), then filtered to
respect minimum and maximum chunk sizes.  Because the hash depends only
on window *content*, an insertion early in a file shifts boundaries only
until the hash re-synchronises — downstream chunks keep their identity,
which is what makes deduplication effective.

The rolling hash is multiplicative: the window ending at byte ``i``
hashes to ``Σ_j table[data[i-j]] · a^j mod 2^32``, evaluated for a
whole slice of windows by doubling the window width:
``G_2m(k) = a^m · G_m(k) + G_m(k+m)`` (plus ``a · G_m(k) + v[k+m]`` for
an odd bit of ``w``) — log2(w) multiply+add passes, no tables beyond
the 256-entry byte table, no per-byte loop.  The byte table is drawn
from a fixed seed: chunk identity is storage format, so every client of
every cloud must cut identically for dedup to work.  The paper's GF(2)
Rabin fingerprint (:class:`repro.chunking.rabin.RabinFingerprint`)
stays as a readable oracle for the tests; it cuts elsewhere, but by the
same :func:`select_boundaries` rules.

The cut loop hashes only windows whose cut point could be kept.  It
hashes ``_BLOCK`` cut points per slice and runs the hits through the
:func:`select_boundaries` rules.  A hit comes once per ``avg_size``
windows, so a slice's hit test first takes its hash maximum: one
reduction rules out most slices before a bool array is built and
scanned for hits.  Each slice starts at ``last + min_size`` or later,
where ``last`` is the last cut.  So when ``min_size`` exceeds a slice
(the default config), it stops at the first hit, skips ``min_size``
and force-cuts at ``last + max_size`` when nothing hits.
:func:`select_boundaries` never keeps a candidate closer than
``min_size`` to the previous cut (forced cuts included) and the cut
after ``last`` depends only on bytes after it, so the cuts are exactly
those of the full candidate list — and a file no larger than
``min_size`` hashes nothing.

A re-save skips what its predecessor already proved.  ``known`` spans
are chunks this chunker cut before (the client's cached chunks), and
such a span holds no cut point: its first ``min_size`` bytes are never
candidates, and the scan that cut it found no hit before its end, a
verdict that depends only on its own bytes when ``min_size >= window``.
So at each cut the loop looks up a known span that the data repeats
from there; the next cut is that span's end if its one window there
hits, the span is ``max_size`` long or it reaches EOF, and otherwise the
scan resumes past its end — where the full scan would cut too.  A span
this chunker did not cut can move a cut, never an id: ids are hashed
from the bytes being cut.

``chunk_bytes`` slices chunks as ``memoryview`` windows over the input
buffer rather than copying each chunk out — the zero-copy entry of the
chunk → encode → upload hot path.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

import numpy as np

from repro.chunking.chunk import Chunk
from repro.errors import ChunkingError
from repro.util.hashing import HashLane, sha1_hex

#: Odd 32-bit multiplier (Knuth).
_MULTIPLIER = 0x9E3779B1
_U32 = np.uint32

#: Seed of the byte table.  Changing it moves every cut point.
_SEED = 0x5EED

#: Cut points hashed per slice.
#: 32 Ki keeps a slice's two uint32 scratch arrays (128 KiB each)
#: L2-resident while bounding the work past the first hit in a slice.
_BLOCK = 32 * 1024

#: Leading bytes a known span is indexed by (``min_size`` if fewer).
_PREFIX = 32


@functools.lru_cache(maxsize=1)
def _byte_table() -> np.ndarray:
    """Random odd uint32 per byte value; decorrelates the hash input.

    Cached and frozen: the table is only ever read, so every chunker
    instance in the process (there is one per client session) shares
    one copy.
    """
    rng = np.random.default_rng(_SEED)
    table = (
        rng.integers(0, 1 << 31, size=256, dtype=np.uint32) * _U32(2) + _U32(1)
    )
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=1)
def _byte_list() -> list[int]:
    """:func:`_byte_table` as Python ints, for one window at a time."""
    return _byte_table().tolist()


def size_error(min_size: int, avg_size: int, max_size: int) -> str | None:
    """Why ``(min_size, avg_size, max_size)`` cannot configure a chunker,
    or None if it can; :class:`repro.core.config.CyrusConfig` applies
    the same rules up front."""
    if avg_size & (avg_size - 1) or avg_size <= 0:
        return f"avg_size must be a power of two, got {avg_size}"
    if avg_size > 1 << 24:
        return f"avg_size above 2^24 unsupported, got {avg_size}"
    if not 0 < min_size <= avg_size <= max_size:
        return (
            f"need 0 < min_size <= avg_size <= max_size, got "
            f"({min_size}, {avg_size}, {max_size})"
        )
    return None


def select_boundaries(
    candidates: list[int], length: int, min_size: int, max_size: int
) -> list[int]:
    """Filter candidate cut points to respect min/max chunk sizes.

    ``candidates`` are ascending byte positions (exclusive chunk ends).
    Returns the final ascending cut list, always ending at ``length``.
    Cuts closer than ``min_size`` to the previous cut are dropped; spans
    longer than ``max_size`` are force-cut at ``max_size``.
    """
    if length == 0:
        return []
    cuts: list[int] = []
    last = 0
    for c in candidates:
        if c <= last or c >= length:
            continue
        while c - last > max_size:
            last += max_size
            cuts.append(last)
        if c - last < min_size:
            continue
        cuts.append(c)
        last = c
    while length - last > max_size:
        last += max_size
        cuts.append(last)
    cuts.append(length)
    return cuts


class ContentDefinedChunker:
    """Cut byte strings into variable-size, content-addressed chunks.

    Args:
        min_size: Smallest chunk the filter will emit (except the final
            chunk of a file, which may be shorter).
        avg_size: Target average chunk size; must be a power of two (it
            becomes the modulus M of the boundary test).
        max_size: Largest chunk; longer runs are force-cut.
        window: Rolling-hash window width in bytes.
    """

    def __init__(
        self,
        min_size: int = 2 * 1024,
        avg_size: int = 8 * 1024,
        max_size: int = 64 * 1024,
        window: int = 16,
    ):
        problem = size_error(min_size, avg_size, max_size)
        if problem:
            raise ChunkingError(problem)
        if window < 2:
            raise ChunkingError(f"window must be >= 2, got {window}")
        self.min_size = min_size
        self.avg_size = avg_size
        self.max_size = max_size
        self.window = window
        self._mask = avg_size - 1
        self._target = self._mask  # K in "hash mod M == K"
        self._bits = avg_size.bit_length() - 1  # log2(M)
        # "top log2(M) bits of the 32-bit hash are all ones" == "hash >= floor"
        self._floor = self._target << (32 - self._bits)
        self._table = _byte_table()
        self._prefix = min(_PREFIX, min_size)

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------

    def _window_hits(self, buf: np.ndarray) -> np.ndarray:
        """Indices ``j`` of the windows ``buf[j : j + w]`` that pass the
        boundary test — the per-slice hash."""
        # per-call scratch: the instance stays read-only, so concurrent
        # calls on one chunker are safe.  mode: uint8 indices cannot
        # miss a 256-entry table, and "raise" would buffer the gather
        g = np.take(self._table, buf, mode="clip")
        spare = np.empty_like(g)
        # G_m(k): hash of the m bytes buf[k : k + m], the newest weighted
        # a^0; g[k] = G_m(k) is valid for k < span - m + 1
        span, m = g.size, 1
        for bit in bin(self.window)[3:]:
            count = span - 2 * m + 1
            np.multiply(g[:count], _U32(pow(_MULTIPLIER, m, 1 << 32)),
                        out=spare[:count])
            np.add(spare[:count], g[m : m + count], out=spare[:count])
            g, spare, m = spare, g, 2 * m
            if bit == "1":
                count -= 1
                np.take(self._table, buf[m : m + count], out=spare[:count],
                        mode="clip")
                np.multiply(g[:count], _U32(_MULTIPLIER), out=g[:count])
                np.add(g[:count], spare[:count], out=g[:count])
                m += 1
        g = g[: span - m + 1]
        # a hit comes once per avg_size windows: one reduction rules out
        # most slices before the bool array and its scan are built
        if g.max() < self._floor:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(g >= _U32(self._floor))

    def _hit_at(self, data: bytes, end: int) -> bool:
        """Whether the one window ending at ``end`` passes the boundary
        test: :meth:`_window_hits` by Horner's rule, ~8x cheaper than
        a numpy call for a single window."""
        table, h = _byte_list(), 0
        for byte in data[end - self.window : end]:
            h = (h * _MULTIPLIER + table[byte]) & 0xFFFFFFFF
        return h >= self._floor

    def _span_index(self, known: Iterable) -> dict[bytes, list[bytes]]:
        """Usable known spans by their leading bytes, longest first.

        Empty when ``min_size < window``: a window at a span's start
        then reaches back before it, so the span proves nothing.
        """
        index: dict[bytes, list[bytes]] = {}
        if self.min_size < self.window:
            return index
        for span in known:
            # a span no longer than min_size skips nothing
            if self.min_size < len(span) <= self.max_size:
                span = bytes(span)
                index.setdefault(span[: self._prefix], []).append(span)
        for spans in index.values():
            spans.sort(key=len, reverse=True)
        return index

    def _known_at(self, index, data: bytes, at: int) -> bytes | None:
        """The longest known span that ``data`` repeats from ``at``."""
        for span in index.get(data[at : at + self._prefix], ()):
            # startswith compares in place; a memoryview == would go
            # element by element
            if data.startswith(span, at):
                return span
        return None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def boundaries(self, data, known: Iterable = ()) -> list[int]:
        """Cut points (exclusive chunk ends) for ``data``, ending at len.

        ``known`` are chunks this chunker cut before; the scan skips
        each one the data repeats from a cut (module docstring).
        """
        return list(self.iter_cuts(data, known))

    def iter_cuts(self, data, known: Iterable = ()) -> Iterator[int]:
        """:meth:`boundaries`, yielding each cut as soon as it is found."""
        full = np.frombuffer(data, dtype=np.uint8)
        n, w = full.size, self.window
        index = self._span_index(known)
        if index and not isinstance(data, bytes):
            data = bytes(data)  # for startswith, and hashable slices
        # every cut point below `hashed` is decided: hashed, with its
        # hits not yet consumed in `todo` (nearest last), skipped as part
        # of a known span, or never a candidate
        last, hashed, todo = 0, min(w, n), []
        while True:
            span = self._known_at(index, data, last) if index else None
            if span is not None:
                end = last + len(span)
                if end == n:
                    break
                if self._hit_at(data, end):
                    yield end
                    last = end
                    continue
                # no candidate in (last + min_size, end]: the scan
                # resumes past it (and force-cuts at end if it is
                # max_size long)
                hashed = max(hashed, end + 1)
            while True:  # the next cut: select_boundaries, inlined
                if todo:
                    c = todo[-1]
                    if c - last > self.max_size:
                        cut = last + self.max_size
                        break
                    todo.pop()
                    if c - last >= self.min_size:
                        cut = c
                        break
                elif hashed - last > self.max_size:
                    # decided up to past max_size without a candidate
                    cut = last + self.max_size
                    break
                else:
                    # cut points closer than min_size to the last cut
                    # are never kept, so they are never hashed
                    s = max(hashed, last + self.min_size)
                    if s >= n:
                        cut = n
                        break
                    hashed = min(n, s + _BLOCK)
                    # cut point s + j ends the window buf[j : j + w]
                    hits = self._window_hits(full[s - w : hashed - 1]) + s
                    todo = hits[::-1].tolist()
            if cut == n:
                break
            yield cut
            last = cut
        if n:
            yield n

    def chunk_bytes(self, data, known: Iterable = (),
                    lane: HashLane | None = None) -> list[Chunk]:
        """Split ``data`` into content-addressed chunks.

        Chunk payloads are zero-copy ``memoryview`` slices of ``data``;
        the caller must keep the source buffer alive while the chunks
        are in use (and may call ``Chunk.to_bytes()`` to detach one).
        ``known`` only places cuts (see :meth:`boundaries`): every id is
        the SHA-1 of the chunk's own bytes.  Each id is hashed on
        ``lane`` (inline without one) as soon as its cut is found, so
        the scan and the hashing overlap.
        """
        lane = HashLane(0) if lane is None else lane
        view = memoryview(data)
        pieces = []
        prev = 0
        for cut in self.iter_cuts(data, known):
            piece = view[prev:cut]
            pieces.append((prev, piece,
                           lane.submit("chunk", cut - prev, sha1_hex, piece)))
            prev = cut
        return [Chunk(id=lane.join(job), data=piece, offset=offset)
                for offset, piece, job in pieces]
