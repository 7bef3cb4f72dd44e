"""Non-systematic Reed--Solomon erasure codec.

The codec multiplies the data (reshaped into ``t`` stripes) by an
``n x t`` dispersal matrix over GF(2^8); every output row is a share and
no row of the default Vandermonde matrix is a unit vector, so no share
contains plaintext (paper Figure 5).  Decoding solves the ``t x t``
system formed by the rows of any ``t`` distinct shares.

Both directions run on :mod:`repro.gf.vector`, a cache-blocked numpy
row-operation interpreter.  Encode accumulates one table lookup per
non-1 coefficient into one ``(n, L)`` matrix whose rows become
zero-copy memoryview payloads; decode replays the Gauss--Jordan
elimination of the share submatrix (memoised per share-index tuple) on
the share rows, so a (2, 3) decode is 2 lookups + 2 xors per stripe
byte.  Rows of 64 KiB or more are multiplied two bytes per lookup
index, through pair tables.  On a 2-vCPU box an 8 MiB chunk encodes
at 0.6--1 GB/s and decodes at 0.4--0.7 GB/s at (2, 3), and codes at
65--160 MB/s at (10, 11) and (2, 11), so transfer rather than coding
bounds end-to-end completion time (paper Section 7.1).
The pure-Python :mod:`repro.gf.scalar` is the oracle the equivalence
suites compare against; the codec borrows only its matrix construction.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.errors import CodingError, InsufficientSharesError
from repro.erasure.share import Share
from repro.gf import scalar as gfscalar
from repro.gf import vector as gfvec


class RSCodec:
    """A (t, n) non-systematic Reed--Solomon codec.

    Args:
        t: Reconstruction threshold (shares needed to decode).
        n: Total shares produced per chunk.
        points: Optional explicit dispersal evaluation points (n distinct
            non-zero field elements).  Defaults to ``1..n``, which is what
            an unkeyed deployment uses; :class:`repro.erasure.KeyedSharer`
            passes key-derived points instead.
    """

    def __init__(self, t: int, n: int, points: Sequence[int] | None = None):
        if t < 1:
            raise CodingError(f"t must be >= 1, got {t}")
        if n < t:
            raise CodingError(f"need n >= t, got (t, n) = ({t}, {n})")
        if n > 255:
            raise CodingError(f"n must be <= 255 in GF(2^8), got {n}")
        if points is None:
            points = list(range(1, n + 1))
        if len(points) != n:
            raise CodingError(f"expected {n} dispersal points, got {len(points)}")
        self.t = t
        self.n = n
        self._points = list(points)
        try:
            self._matrix = gfscalar.vandermonde_rows(self._points, t)
        except ValueError as exc:
            raise CodingError(str(exc)) from exc
        self._matrix_np = np.asarray(self._matrix, dtype=np.uint8)
        # share-index tuple -> elimination program
        self._programs: dict[tuple[int, ...], gfvec.RowProgram] = {}

    @property
    def dispersal_matrix(self) -> np.ndarray:
        """The n x t encoding matrix (copy; rows index shares)."""
        return self._matrix_np.copy()

    def encode(self, data) -> list[Share]:
        """Encode chunk bytes into ``n`` shares of ``ceil(len/t)`` bytes each.

        The share payloads are zero-copy memoryviews over one contiguous
        ``(n, L)`` output matrix.
        """
        return self._encode_rows(data, range(self.n))

    def encode_rows(self, data, indices: Iterable[int]) -> list[Share]:
        """Encode only the shares with the given indices.

        Used by lazy share migration (paper Section 5.5): after a CSP is
        removed, only the missing share index is regenerated.
        """
        idx = list(indices)
        for i in idx:
            if not 0 <= i < self.n:
                raise CodingError(f"share index {i} outside [0, {self.n})")
        return self._encode_rows(data, idx)

    def _encode_rows(self, data, indices: Iterable[int]) -> list[Share]:
        idx = list(indices)
        size = len(data)
        coded = gfvec.encode_blocks(self._matrix_np[idx, :], data, self.t)
        return [
            Share(index=i, data=coded[row].data, t=self.t, n=self.n,
                  chunk_size=size)
            for row, i in enumerate(idx)
        ]

    def decode(self, shares: Sequence[Share]) -> bytes:
        """Reconstruct the chunk from any ``t`` distinct shares.

        Extra shares beyond ``t`` are ignored (the first ``t`` distinct
        indices are used).  Raises :class:`InsufficientSharesError` when
        fewer than ``t`` distinct indices are available and
        :class:`CodingError` on share-shape mismatches.
        """
        distinct: dict[int, Share] = {}
        for s in shares:
            if s.t != self.t or s.n != self.n:
                raise CodingError(
                    f"share coded with (t, n) = ({s.t}, {s.n}), "
                    f"codec is ({self.t}, {self.n})"
                )
            distinct.setdefault(s.index, s)
        if len(distinct) < self.t:
            raise InsufficientSharesError(
                f"need {self.t} distinct shares, got {len(distinct)}"
            )
        chosen = [distinct[i] for i in sorted(distinct)][: self.t]
        sizes = {s.chunk_size for s in chosen}
        if len(sizes) != 1:
            raise CodingError(f"shares disagree on chunk size: {sorted(sizes)}")
        chunk_size = sizes.pop()
        stripe_len = max(1, (chunk_size + self.t - 1) // self.t)
        for s in chosen:
            if len(s.data) != stripe_len:
                raise CodingError(
                    f"share {s.index} has {len(s.data)} bytes, expected {stripe_len}"
                )
        indices = tuple(s.index for s in chosen)
        program = self._programs.get(indices)
        if program is None:
            program = gfvec.elimination_program(
                [self._matrix[i] for i in indices]
            )
            self._programs[indices] = program  # <= C(n, t) entries of ~t^2 ops
        stripes = gfvec.run(program, [s.data for s in chosen])
        return stripes.reshape(-1)[:chunk_size].tobytes()

    def decode_verified(
        self,
        shares: Sequence[Share],
        verify,
    ) -> bytes:
        """Reconstruct despite corrupted shares, using a verifier.

        Paper Section 5.1: "R-S coding goes further than secret sharing:
        it can recover a chunk's data even if there are errors in the t
        shares used to reconstruct the chunk."  CYRUS content-addresses
        every chunk, so instead of algebraic error location
        (Berlekamp--Welch) we decode t-subsets of the available shares
        and accept the first whose plaintext passes ``verify`` (the
        chunk-hash check) — with up to ``n - t`` corrupted shares some
        clean subset always exists.

        Args:
            shares: Any number (>= t) of possibly-corrupt shares.
            verify: ``bytes -> bool`` — e.g. a SHA-1 comparison.

        Raises:
            InsufficientSharesError: Fewer than t distinct indices.
            CodingError: No t-subset produced a verifiable chunk.
        """
        distinct: dict[int, Share] = {}
        for s in shares:
            distinct.setdefault(s.index, s)
        if len(distinct) < self.t:
            raise InsufficientSharesError(
                f"need {self.t} distinct shares, got {len(distinct)}"
            )
        candidates = [distinct[i] for i in sorted(distinct)]
        for combo in itertools.combinations(candidates, self.t):
            try:
                plaintext = self.decode(list(combo))
            except CodingError:
                continue
            if verify(plaintext):
                return plaintext
        raise CodingError(
            f"no {self.t}-subset of {len(candidates)} shares verified; "
            f"too many corrupted shares"
        )
