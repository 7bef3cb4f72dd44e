"""Batched GF(2^8) kernels over whole 2-D share matrices.

The scalar reference multiplies one coefficient into one stripe at a
time in Python.  ``matmul`` does the same walk in numpy, one
``(coefficient, input row)`` pair at a time:

    out[i] ^= MUL_TABLE[matrix[i, j]][stripes[j]]

``MUL_TABLE[c]`` is a contiguous 256-byte row, so the lookup is
``np.take`` over a 1-D table that lives in L1 — numpy's fast path —
rather than a two-index gather into the full 64 KiB table.  Columns
are processed in ``_BLOCK``-byte blocks so one input block, one output
block and the scratch block stay cache-resident across all
``rows * t`` passes.  A coefficient of 1 xors the stripe in as it is
and a coefficient of 0 is skipped (the first Vandermonde column is all
ones).

Outputs are C-contiguous ``uint8`` matrices whose rows the codec hands
out as zero-copy ``memoryview`` share payloads.
"""

from __future__ import annotations

import numpy as np

from repro.gf.tables import MUL_TABLE

__all__ = ["stripe", "matmul", "encode_blocks"]

#: Column block: input, output and scratch blocks of this size stay in L2.
_BLOCK = 64 * 1024


def stripe(data, t: int) -> np.ndarray:
    """Reshape chunk bytes into a zero-padded ``(t, L)`` stripe matrix.

    ``data`` may be any bytes-like object (bytes, memoryview, ndarray).
    When the length is already a multiple of ``t`` the result is a
    zero-copy reshaped view of the input buffer; otherwise one padded
    copy is made (the pad bytes must exist somewhere).
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    stripe_len = max(1, -(-buf.size // t))
    if buf.size == t * stripe_len:
        return buf.reshape(t, stripe_len)
    padded = np.zeros(t * stripe_len, dtype=np.uint8)
    padded[: buf.size] = buf
    return padded.reshape(t, stripe_len)


def matmul(matrix: np.ndarray, stripes) -> np.ndarray:
    """``matrix @ stripes`` over GF(2^8) via table-lookup xor-accumulate.

    Args:
        matrix: ``(rows, t)`` uint8 coefficient matrix.
        stripes: ``t`` equal-length uint8 rows — a ``(t, L)`` array or
            any sequence of 1-D arrays / buffers (only ever read one row
            at a time, so they need not share a matrix).

    Returns:
        ``(rows, L)`` C-contiguous uint8 product.
    """
    m = np.asarray(matrix, dtype=np.uint8)
    # memoryview first: zero-copy for bytes, buffers and (strided) array rows
    srcs = [np.asarray(memoryview(row), dtype=np.uint8) for row in stripes]
    rows, t = m.shape
    if len(srcs) != t or len({src.shape for src in srcs}) > 1 or srcs[0].ndim != 1:
        raise ValueError(
            f"shape mismatch: {m.shape} @ {[src.shape for src in srcs]}"
        )
    length = srcs[0].size
    out = np.empty((rows, length), dtype=np.uint8)
    tmp = np.empty(min(length, _BLOCK), dtype=np.uint8)
    coeffs = m.tolist()
    for lo in range(0, length, _BLOCK):
        hi = min(length, lo + _BLOCK)
        blocks = [src[lo:hi] for src in srcs]
        scratch = tmp[: hi - lo]
        for i in range(rows):
            dst = out[i, lo:hi]
            dst[:] = 0
            for c, blk in zip(coeffs[i], blocks):
                if c == 0:
                    continue
                if c != 1:
                    np.take(MUL_TABLE[c], blk, out=scratch, mode="clip")
                    blk = scratch
                np.bitwise_xor(dst, blk, out=dst)
    return out


def encode_blocks(matrix: np.ndarray, data, t: int) -> np.ndarray:
    """Encode chunk bytes against ``matrix``: all output rows in one call."""
    return matmul(matrix, stripe(data, t))
