"""Non-systematic Reed--Solomon erasure codec.

The codec multiplies the data (reshaped into ``t`` stripes) by an
``n x t`` dispersal matrix over GF(2^8); every output row is a share and
no row of the default Vandermonde matrix is a unit vector, so no share
contains plaintext (paper Figure 5).  Decoding inverts the ``t x t``
submatrix formed by the rows of any ``t`` distinct shares.

Two interchangeable backends produce byte-identical shares:

* ``"vector"`` (:mod:`repro.gf.vector`) — a cache-blocked numpy kernel
  that looks each stripe up in one 256-byte row of the multiplication
  table per coefficient, xor-accumulates into one ``(n, L)`` matrix and
  hands out its rows as zero-copy memoryview payloads.  Throughput is
  ~1 GB/s, so transfer rather than coding bounds end-to-end completion
  time (paper Section 7.1).
* ``"scalar"`` (:mod:`repro.gf.scalar`) — pure-Python byte-at-a-time
  loops with independently built tables.  It is the fallback when numpy
  is unavailable and the oracle the equivalence suites compare against.

Selection is automatic (``default_backend``): ``CYRUS_CODEC`` may force
``vector`` or ``scalar``; ``CYRUS_NO_NUMPY_ACCEL=1`` is an alias for
scalar; otherwise ``auto`` picks vector whenever numpy imports.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Sequence

from repro.errors import CodingError, InsufficientSharesError
from repro.erasure.share import Share
from repro.gf import scalar as gfscalar

try:  # pragma: no cover - exercised implicitly by backend selection
    import numpy as np

    from repro.gf import vector as gfvec
    from repro.gf.matrix import gf_mat_inv

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - container always ships numpy
    np = None
    gfvec = None
    gf_mat_inv = None
    _HAVE_NUMPY = False

BACKENDS = ("vector", "scalar")


def default_backend() -> str:
    """Resolve the codec backend from the environment.

    ``CYRUS_NO_NUMPY_ACCEL=1`` forces scalar; else ``CYRUS_CODEC`` may
    name ``vector``/``scalar`` explicitly (``auto``/unset picks vector
    when numpy is importable, scalar otherwise).
    """
    if os.environ.get("CYRUS_NO_NUMPY_ACCEL") == "1":
        return "scalar"
    choice = os.environ.get("CYRUS_CODEC", "auto").strip().lower()
    if choice in BACKENDS:
        return choice
    if choice not in ("", "auto"):
        raise CodingError(
            f"unknown CYRUS_CODEC backend {choice!r}; expected auto, vector or scalar"
        )
    return "vector" if _HAVE_NUMPY else "scalar"


class RSCodec:
    """A (t, n) non-systematic Reed--Solomon codec.

    Args:
        t: Reconstruction threshold (shares needed to decode).
        n: Total shares produced per chunk.
        points: Optional explicit dispersal evaluation points (n distinct
            non-zero field elements).  Defaults to ``1..n``, which is what
            an unkeyed deployment uses; :class:`repro.erasure.KeyedSharer`
            passes key-derived points instead.
        backend: ``"vector"``, ``"scalar"``, or None for
            :func:`default_backend`.
    """

    def __init__(
        self,
        t: int,
        n: int,
        points: Sequence[int] | None = None,
        backend: str | None = None,
    ):
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
        backend = default_backend() if backend is None else backend
        if backend not in BACKENDS:
            raise CodingError(f"unknown codec backend {backend!r}")
        if backend == "vector" and not _HAVE_NUMPY:
            raise CodingError("vector backend requested but numpy is unavailable")
        self.t = t
        self.n = n
        self.backend = backend
        self._points = list(points)
        try:
            # Pure-Python construction either way; the two backends must
            # agree on the matrix bit-for-bit.
            self._matrix = gfscalar.vandermonde_rows(self._points, t)
        except ValueError as exc:
            raise CodingError(str(exc)) from exc
        self._matrix_np = (
            np.asarray(self._matrix, dtype=np.uint8) if _HAVE_NUMPY else None
        )
        # share-index tuple -> inverted t x t submatrix (vector decode)
        self._inverses: dict[tuple[int, ...], "np.ndarray"] = {}

    @property
    def dispersal_matrix(self) -> "np.ndarray":
        """The n x t encoding matrix (copy; rows index shares)."""
        if self._matrix_np is None:  # pragma: no cover - numpy-less fallback
            raise CodingError("dispersal_matrix requires numpy")
        return self._matrix_np.copy()

    def encode(self, data) -> list[Share]:
        """Encode chunk bytes into ``n`` shares of ``ceil(len/t)`` bytes each.

        On the vector backend the share payloads are zero-copy
        memoryviews over one contiguous ``(n, L)`` output matrix.
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
        if self.backend == "vector":
            sub = self._matrix_np[idx, :]
            coded = gfvec.encode_blocks(sub, data, self.t)
            payloads = [coded[row].data for row in range(len(idx))]
        else:
            stripes = gfscalar.stripe_rows(data, self.t)
            rows = [self._matrix[i] for i in idx]
            payloads = [bytes(p) for p in gfscalar.matmul_rows(rows, stripes)]
        return [
            Share(index=i, data=payload, t=self.t, n=self.n, chunk_size=size)
            for i, payload in zip(idx, payloads)
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
        if self.backend == "vector":
            return self._decode_vector(chosen, chunk_size, stripe_len)
        return self._decode_scalar(chosen, chunk_size)

    def _decode_vector(
        self, chosen: Sequence[Share], chunk_size: int, stripe_len: int
    ) -> bytes:
        indices = tuple(s.index for s in chosen)
        inv = self._inverses.get(indices)
        if inv is None:
            try:
                inv = gf_mat_inv(self._matrix_np[list(indices), :])
            except np.linalg.LinAlgError as exc:
                raise CodingError("singular share submatrix") from exc
            self._inverses[indices] = inv  # <= C(n, t) t x t entries
        stripes = gfvec.matmul(inv, [s.data for s in chosen])
        return stripes.reshape(-1)[:chunk_size].tobytes()

    def _decode_scalar(self, chosen: Sequence[Share], chunk_size: int) -> bytes:
        sub = [self._matrix[s.index] for s in chosen]
        try:
            inv_rows = gfscalar.mat_inv(sub)
        except ValueError as exc:
            raise CodingError("singular share submatrix") from exc
        coded = [bytes(s.data) for s in chosen]
        stripes = gfscalar.matmul_rows(inv_rows, coded)
        return b"".join(bytes(row) for row in stripes)[:chunk_size]

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
