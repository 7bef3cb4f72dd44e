"""Content-defined chunker.

Boundaries are declared where a rolling hash of the trailing ``window``
bytes satisfies ``hash mod M == K`` (paper Section 5.1), then filtered to
respect minimum and maximum chunk sizes.  Because the hash depends only
on window *content*, an insertion early in a file shifts boundaries only
until the hash re-synchronises — downstream chunks keep their identity,
which is what makes deduplication effective.

Two interchangeable engines compute the rolling hash:

* ``"vectorized"`` (default) — a multiplicative rolling hash evaluated
  with numpy prefix sums.  The multiplier is odd and therefore
  invertible modulo 2^32, which lets the hash of the window ending at
  byte ``i`` be written as ``a^i * (S[i+1] - S[i-w+1])`` for a single
  prefix-sum array ``S`` — one pass over the data, no per-byte loop.
* ``"rabin"`` — the same GF(2) Rabin fingerprint as the reference,
  computed in batch by :class:`repro.chunking.rabin_vec.VectorRabin`
  (one table gather per window offset).  Produces **bit-identical cut
  points** to ``"reference"`` at vectorised speed.
* ``"reference"`` — the classic GF(2) Rabin fingerprint
  (:class:`repro.chunking.rabin.RabinFingerprint`), byte-at-a-time.
  The oracle the ``"rabin"`` engine is verified against.

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

#: Odd 32-bit multiplier (Knuth); odd => invertible mod 2^32.
_MULTIPLIER = 0x9E3779B1
_MULT_INV = pow(_MULTIPLIER, -1, 1 << 32)
_U32 = np.uint32

#: Window positions scanned per pass by the vectorised and rabin engines.
#: 32 Ki keeps the vectorised scan's two uint32 scratch arrays and two
#: power tables (128 KiB each) L2-resident; 16-64 Ki measure within 10 %.
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


@functools.lru_cache(maxsize=8)
def _power_series(base: int, count: int) -> np.ndarray:
    """[base^0, base^1, ..., base^(count-1)] modulo 2^32.

    Cached and frozen: a series is ``_BLOCK + window`` entries (128 KiB,
    ~0.2 ms to build), read-only, and shared by every chunker instance
    of the same window.
    """
    out = np.empty(count, dtype=np.uint32)
    out[0] = _U32(1)
    if count > 1:
        with np.errstate(over="ignore"):
            np.multiply.accumulate(
                np.full(count - 1, _U32(base & 0xFFFFFFFF), dtype=np.uint32),
                out=out[1:],
            )
    out.setflags(write=False)
    return out


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
        if avg_size & (avg_size - 1) or avg_size <= 0:
            raise ChunkingError(f"avg_size must be a power of two, got {avg_size}")
        if avg_size > 1 << 24:
            raise ChunkingError(f"avg_size above 2^24 unsupported, got {avg_size}")
        if not 0 < min_size <= avg_size <= max_size:
            raise ChunkingError(
                f"need 0 < min_size <= avg_size <= max_size, got "
                f"({min_size}, {avg_size}, {max_size})"
            )
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
            # data-independent power tables, shared by every block
            self._pows = _power_series(_MULTIPLIER, _BLOCK + window)
            self._inv_pows = _power_series(_MULT_INV, _BLOCK + window)
        elif engine == "rabin":
            self._vrabin = VectorRabin(window=window)
        else:
            self._rabin = RabinFingerprint(window=window)

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------

    def _candidates_vectorized(self, data: bytes) -> list[int]:
        w = self.window
        full = np.frombuffer(data, dtype=np.uint8)
        n = full.size
        if n < w:
            return []
        out: list[int] = []
        # "top log2(M) bits of the 32-bit hash are all ones" == "hash >= floor"
        floor = _U32(self._target << (32 - self._bits))
        # per-call scratch: the instance stays read-only, so concurrent
        # calls on one chunker are safe
        span = min(_BLOCK, n - w + 1)  # windows per pass
        vals = np.empty(span + w - 1, dtype=np.uint32)
        s = np.zeros(span + w, dtype=np.uint32)
        for lo in range(0, n - w + 1, span):
            count = min(n - w + 1, lo + span) - lo  # windows in this block
            m = count + w - 1  # bytes they cover: [lo, lo + m)
            v = vals[:m]
            # mode: uint8 indices cannot miss a 256-entry table, and
            # "raise" would buffer the whole gather before writing out
            np.take(self._table, full[lo : lo + m], out=v, mode="clip")
            # S[k] = sum_{j<k} vals[j] * a^-j (block-relative, mod 2^32)
            np.multiply(v, self._inv_pows[:m], out=v)
            np.add.accumulate(v, out=s[1 : m + 1])
            # hash of window ending at i: a^i * (S[i+1] - S[i-w+1]);
            # pure slice arithmetic — no gathers (vals is dead: reuse it)
            h = vals[:count]
            np.subtract(s[w : m + 1], s[:count], out=h)
            np.multiply(h, self._pows[w - 1 : m], out=h)
            hits = np.flatnonzero(h >= floor)
            if hits.size == 0:
                continue
            # hit k is the window starting at block byte k; the cut
            # point is one past its end, in absolute coordinates
            out.extend((hits + (lo + w)).tolist())
        return out

    def _candidates_rabin(self, data) -> list[int]:
        """Rabin candidates in batch — bit-identical to the reference engine.

        Blocked over window end positions so the uint64 fingerprint array
        stays bounded regardless of input size.
        """
        w = self.window
        full = np.frombuffer(data, dtype=np.uint8)
        n = full.size
        if n < w:
            return []
        out: list[int] = []
        for lo in range(0, n - w + 1, _BLOCK):
            hi = min(n - w + 1, lo + _BLOCK)
            # windows starting at lo..hi-1 need bytes [lo, hi + w - 1)
            fps = self._vrabin.masked_fingerprints(full[lo : hi + w - 1], self._mask)
            target = fps.dtype.type(self._target)
            hits = np.nonzero(fps == target)[0]
            # hit j is the window ending at absolute byte lo + j + w - 1;
            # the cut point is one past it, as in the reference engine
            out.extend((hits + (lo + w)).tolist())
        return out

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
        if self.engine == "vectorized":
            candidates = self._candidates_vectorized(data)
        elif self.engine == "rabin":
            candidates = self._candidates_rabin(data)
        else:
            candidates = self._candidates_reference(data)
        return select_boundaries(candidates, len(data), self.min_size, self.max_size)

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
