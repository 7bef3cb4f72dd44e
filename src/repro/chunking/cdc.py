"""Content-defined chunker.

Boundaries are declared where a rolling hash of the trailing ``window``
bytes satisfies ``hash mod M == K`` (paper Section 5.1), then filtered to
respect minimum and maximum chunk sizes.  Because the hash depends only
on window *content*, an insertion early in a file shifts boundaries only
until the hash re-synchronises — downstream chunks keep their identity,
which is what makes deduplication effective.

Three engines compute the rolling hash:

* ``"vectorized"`` (default) — a multiplicative hash, the window ending
  at byte ``i`` hashing to ``Σ_j table[data[i-j]] · a^j mod 2^32``,
  evaluated for a whole slice of windows by doubling the window width:
  ``G_2m(k) = a^m · G_m(k) + G_m(k+m)`` (plus ``a · G_m(k) + v[k+m]``
  for an odd bit of ``w``) — log2(w) multiply+add passes, no tables
  beyond the 256-entry byte table, no per-byte loop.
* ``"rabin"`` — the same GF(2) Rabin fingerprint as the reference,
  computed in batch by :class:`repro.chunking.rabin_vec.VectorRabin`
  (one table gather per window offset).  Produces **bit-identical cut
  points** to ``"reference"`` at vectorised speed.
* ``"reference"`` — the classic GF(2) Rabin fingerprint
  (:class:`repro.chunking.rabin.RabinFingerprint`), byte-at-a-time,
  every candidate fed through :func:`select_boundaries`.  The oracle
  the ``"rabin"`` engine is verified against.

The two vectorised engines share one cut loop that hashes only windows
whose cut point could be kept.  It hashes ``_BLOCK`` cut points per
slice and runs the hits through the :func:`select_boundaries` rules;
each slice starts at ``last + min_size`` or later, where ``last`` is the
last cut.  So when ``min_size`` exceeds a slice (the default config), it
stops at the first hit, skips ``min_size`` and force-cuts at
``last + max_size`` when nothing hits.  :func:`select_boundaries` never
keeps a candidate closer than ``min_size`` to the previous cut (forced
cuts included) and the cut after ``last`` depends only on bytes after
it, so the cuts are exactly those of the full candidate list — and a
file no larger than ``min_size`` hashes nothing.

``"vectorized"`` uses a different hash function, so its boundaries
differ from the Rabin pair, but all engines are deterministic and
content-defined; tests verify the structural properties for each.

``chunk_bytes`` slices chunks as ``memoryview`` windows over the input
buffer rather than copying each chunk out — the zero-copy entry of the
chunk → encode → upload hot path.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.chunking.chunk import Chunk
from repro.chunking.rabin import RabinFingerprint
from repro.chunking.rabin_vec import VectorRabin
from repro.errors import ChunkingError

#: Odd 32-bit multiplier (Knuth).
_MULTIPLIER = 0x9E3779B1
_U32 = np.uint32

#: Cut points hashed per slice by the vectorised and rabin engines.
#: 32 Ki keeps a slice's two uint32 scratch arrays (128 KiB each)
#: L2-resident while bounding the work past the first hit in a slice.
_BLOCK = 32 * 1024


@functools.lru_cache(maxsize=8)
def _byte_table(seed: int) -> np.ndarray:
    """Random odd uint32 per byte value; decorrelates the hash input.

    Cached and frozen: the table is a pure function of the seed and is
    only ever read, so every chunker instance in the process (there is
    one per client session) shares one copy.
    """
    rng = np.random.default_rng(seed)
    table = (
        rng.integers(0, 1 << 31, size=256, dtype=np.uint32) * _U32(2) + _U32(1)
    )
    table.setflags(write=False)
    return table


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
        engine: ``"vectorized"``, ``"rabin"``, or ``"reference"``.
        seed: Seed for the byte-mixing table (vectorized engine) — all
            clients of one CYRUS cloud must share it for dedup to work.
    """

    def __init__(
        self,
        min_size: int = 2 * 1024,
        avg_size: int = 8 * 1024,
        max_size: int = 64 * 1024,
        window: int = 16,
        engine: str = "vectorized",
        seed: int = 0x5EED,
    ):
        problem = size_error(min_size, avg_size, max_size)
        if problem:
            raise ChunkingError(problem)
        if window < 2:
            raise ChunkingError(f"window must be >= 2, got {window}")
        if engine not in ("vectorized", "rabin", "reference"):
            raise ChunkingError(f"unknown engine {engine!r}")
        self.min_size = min_size
        self.avg_size = avg_size
        self.max_size = max_size
        self.window = window
        self.engine = engine
        self.seed = seed
        self._mask = avg_size - 1
        self._target = self._mask  # K in "hash mod M == K"
        self._bits = avg_size.bit_length() - 1  # log2(M)
        if engine == "vectorized":
            self._table = _byte_table(seed)
        elif engine == "rabin":
            self._vrabin = VectorRabin(window=window)
        else:
            self._rabin = RabinFingerprint(window=window)

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------

    def _window_hits(self, buf: np.ndarray) -> np.ndarray:
        """Indices ``j`` of the windows ``buf[j : j + w]`` that pass the
        boundary test — the per-slice hash of both vectorised engines."""
        if self.engine == "rabin":
            fps = self._vrabin.masked_fingerprints(buf, self._mask)
            return np.flatnonzero(fps == fps.dtype.type(self._target))
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
        # "top log2(M) bits of the 32-bit hash are all ones" == "hash >= floor"
        floor = _U32(self._target << (32 - self._bits))
        return np.flatnonzero(g[: span - m + 1] >= floor)

    def _candidates_reference(self, data: bytes) -> list[int]:
        rabin = self._rabin
        rabin.reset()
        out: list[int] = []
        mask = self._mask
        target = self._target
        w = self.window
        for i, byte in enumerate(data):
            fp = rabin.push(byte)
            if i >= w - 1 and (fp & mask) == target:
                out.append(i + 1)
        return out

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def boundaries(self, data: bytes) -> list[int]:
        """Cut points (exclusive chunk ends) for ``data``, ending at len."""
        if self.engine == "reference":
            return select_boundaries(
                self._candidates_reference(data), len(data),
                self.min_size, self.max_size,
            )
        full = np.frombuffer(data, dtype=np.uint8)
        n, w = full.size, self.window
        cuts: list[int] = []
        last, s = 0, w  # s: first cut point not yet hashed
        while True:
            # cut points closer than min_size to the last cut are never
            # kept, so they are never hashed
            s = max(s, last + self.min_size)
            end = min(n, s + _BLOCK)
            if s < end:
                # cut point s + j ends the window buf[j : j + w]
                hits = self._window_hits(full[s - w : end - 1]) + s
                for c in hits.tolist():  # select_boundaries, inlined
                    while c - last > self.max_size:
                        last += self.max_size
                        cuts.append(last)
                    if c - last >= self.min_size:
                        cuts.append(c)
                        last = c
            # every cut point below end is decided: force-cut spans that
            # reached max_size without a candidate
            while end - last > self.max_size:
                last += self.max_size
                cuts.append(last)
            if end >= n:
                break
            s = end
        if n:
            cuts.append(n)
        return cuts

    def chunk_bytes(self, data) -> list[Chunk]:
        """Split ``data`` into content-addressed chunks.

        Chunk payloads are zero-copy ``memoryview`` slices of ``data``;
        the caller must keep the source buffer alive while the chunks
        are in use (and may call ``Chunk.to_bytes()`` to detach one).
        """
        cuts = self.boundaries(data)
        view = memoryview(data)
        chunks: list[Chunk] = []
        prev = 0
        for cut in cuts:
            chunks.append(Chunk.from_data(view[prev:cut], offset=prev))
            prev = cut
        return chunks
