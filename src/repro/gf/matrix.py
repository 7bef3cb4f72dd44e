"""Matrix algebra over GF(2^8).

Matrices are numpy ``uint8`` arrays: small-matrix algebra (product via
the log/exp tables, Gauss--Jordan inverse, rank, Vandermonde
construction) for analysis and tests, e.g. checking that every
t-subset of a dispersal matrix is invertible.  The codec does not use
it: its bulk kernels, decode included, are the row programs in
:mod:`repro.gf.vector`.
"""

from __future__ import annotations

import numpy as np

from repro.gf.tables import EXP_TABLE, LOG_TABLE

__all__ = [
    "gf_mat_mul",
    "gf_mat_vec",
    "gf_mat_inv",
    "gf_mat_rank",
    "vandermonde",
]


def _as_gf(m: np.ndarray) -> np.ndarray:
    arr = np.asarray(m, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return arr


def gf_mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` over GF(2^8).

    Uses the identity a*b = exp(log a + log b) per element, with zero rows
    and columns masked out, then XOR-reduces partial products.  Shapes
    follow numpy matmul rules for 2-D inputs.
    """
    a = _as_gf(a)
    b = _as_gf(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    # partial[i, k, j] = a[i, k] * b[k, j]
    log_a = LOG_TABLE[a]  # int32
    log_b = LOG_TABLE[b]
    partial = EXP_TABLE[log_a[:, :, None] + log_b[None, :, :]].astype(np.uint8)
    mask = (a[:, :, None] != 0) & (b[None, :, :] != 0)
    partial = np.where(mask, partial, 0)
    return np.bitwise_xor.reduce(partial, axis=1)


def gf_mat_vec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix--vector product over GF(2^8)."""
    x = np.asarray(x, dtype=np.uint8)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return gf_mat_mul(a, x[:, None])[:, 0]


def gf_mat_inv(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix via Gauss--Jordan elimination.

    Raises ``np.linalg.LinAlgError`` when the matrix is singular, matching
    the numpy convention so callers can reuse their error handling.
    """
    m = _as_gf(m)
    k = m.shape[0]
    if m.shape != (k, k):
        raise ValueError("matrix must be square")
    # augmented [m | I] in int32 workspace for index math
    aug = np.concatenate([m, np.eye(k, dtype=np.uint8)], axis=1).astype(np.int32)
    for col in range(k):
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise np.linalg.LinAlgError("singular matrix over GF(2^8)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        # normalise pivot row to leading 1
        inv_p = EXP_TABLE[255 - LOG_TABLE[aug[col, col]]]
        row = aug[col]
        nz = row != 0
        row[nz] = EXP_TABLE[LOG_TABLE[row[nz]] + LOG_TABLE[inv_p]]
        # eliminate the column from every other row
        for r in range(k):
            if r == col or aug[r, col] == 0:
                continue
            factor = aug[r, col]
            scaled = np.zeros_like(row)
            nz = row != 0
            scaled[nz] = EXP_TABLE[LOG_TABLE[row[nz]] + LOG_TABLE[factor]]
            aug[r] ^= scaled
    return aug[:, k:].astype(np.uint8)


def gf_mat_rank(m: np.ndarray) -> int:
    """Rank of a matrix over GF(2^8) by forward elimination."""
    work = _as_gf(m).astype(np.int32).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot_rows = np.nonzero(work[rank:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = rank + int(pivot_rows[0])
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        inv_p = EXP_TABLE[255 - LOG_TABLE[work[rank, col]]]
        row = work[rank]
        nz = row != 0
        row[nz] = EXP_TABLE[LOG_TABLE[row[nz]] + LOG_TABLE[inv_p]]
        for r in range(rank + 1, rows):
            if work[r, col] == 0:
                continue
            factor = work[r, col]
            scaled = np.zeros_like(row)
            nz = row != 0
            scaled[nz] = EXP_TABLE[LOG_TABLE[row[nz]] + LOG_TABLE[factor]]
            work[r] ^= scaled
        rank += 1
    return rank


def vandermonde(points: np.ndarray, width: int) -> np.ndarray:
    """Vandermonde matrix V[i, j] = points[i] ** j over GF(2^8).

    ``points`` must be distinct non-zero field elements — distinctness
    guarantees every ``width``-subset of rows is invertible, which is what
    makes the matrix usable as an MDS erasure-code dispersal matrix.
    """
    pts = np.asarray(points, dtype=np.uint8)
    if pts.ndim != 1:
        raise ValueError("points must be a 1-D vector")
    if len(set(pts.tolist())) != pts.size:
        raise ValueError("Vandermonde points must be distinct")
    if np.any(pts == 0):
        raise ValueError("Vandermonde points must be non-zero")
    n = pts.size
    out = np.ones((n, width), dtype=np.uint8)
    logs = LOG_TABLE[pts]  # int32
    for j in range(1, width):
        out[:, j] = EXP_TABLE[(logs * j) % 255]
    return out
