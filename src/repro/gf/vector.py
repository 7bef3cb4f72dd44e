"""Batched GF(2^8) kernels: one row-operation interpreter for both
directions of the codec.

Encode and decode are both short *programs* of row operations, run by
:func:`run` over whole share rows:

    row_i ^= c * row_j      (i != j; a bare xor when c == 1)
    row_i  = c * row_i      (i == j)

Rows ``0 .. rows-1`` are the output rows, each starting as zero; rows
``rows .. rows+t-1`` are the ``t`` input rows, which are only read.

* **Encode** (:func:`matmul_program`) is one op per non-zero matrix
  coefficient, ``out_i ^= m[i, j] * in_j``.
* **Decode** (:func:`elimination_program`) loads share ``r`` into row
  ``r`` and records the Gauss--Jordan elimination of the ``t x t`` share
  submatrix as row operations: applied to the share rows they leave the
  stripes.  For the Vandermonde rows ``[1, p, p^2, ...]`` the first
  column is all ones, so the first elimination step is ``t - 1`` bare
  xors, and a ``(2, 3)`` decode is 2 table lookups + 2 xors per stripe
  byte where multiplying by the dense inverse took 4 + 4.

``c * row`` is one ``np.take`` per block (:func:`_mul`).  ``take``
converts every index to ``intp`` before it gathers, so a lookup costs
per *index*, not per byte.  Rows of at least one ``_BLOCK`` are
therefore looked up two bytes at a time: their native ``uint16`` view
indexes the 65,536-entry pair table of ``c``, which holds ``c * (a, b)``
for every byte pair ``(a, b)`` (:func:`_pair_table`: built lazily from
``MUL_TABLE[c]``, read-only, 128 KiB, so at most 32 MiB if every
coefficient is ever used).  A block's odd last byte goes through
``MUL_TABLE[c]`` by scalar index, and a strided input row is copied
contiguous once, at :func:`run` entry.  Shorter rows -- a small file's
chunks, the many tenant keys of a fleet -- take the 256-byte
``MUL_TABLE[c]`` row and build no table.  Either way it is one lookup
per op per block.

The interpreter walks the rows in ``_BLOCK``-byte column blocks so the
input, output and scratch blocks stay cache-resident across every op.
Writes are copy-on-write: an op on a row that is still zero writes its
term straight into the output (a lookup, or for ``c == 1`` an alias of
the read-only input row), and an op on a row that still aliases an
input reads the input and writes the output.  Nothing is zero-filled; a
row the program leaves aliased is copied once.

Outputs are C-contiguous ``uint8`` matrices whose rows the codec hands
out as zero-copy ``memoryview`` share payloads.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import CodingError
from repro.gf import scalar as gfscalar
from repro.gf.tables import MUL_TABLE

__all__ = [
    "RowProgram",
    "stripe",
    "matmul_program",
    "elimination_program",
    "run",
    "matmul",
    "encode_blocks",
]

#: Column block: input, output and scratch blocks of this size stay in L2.
#: Also the shortest row that uses pair tables: a table's build (about a
#: block's lookup) is then paid back by every block that reads it.
_BLOCK = 64 * 1024


class RowProgram(NamedTuple):
    """Row operations ``(i, j, c)`` over ``rows`` output rows (see module)."""

    rows: int
    ops: tuple[tuple[int, int, int], ...]


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


def matmul_program(matrix: np.ndarray) -> RowProgram:
    """``matrix @ inputs``: one accumulate per non-zero coefficient."""
    rows = len(matrix)
    return RowProgram(rows, tuple(
        (i, rows + j, c)
        for i, coeffs in enumerate(np.asarray(matrix).tolist())
        for j, c in enumerate(coeffs)
        if c
    ))


def elimination_program(matrix: Sequence[Sequence[int]]) -> RowProgram:
    """Solve ``matrix @ stripes = shares``: Gauss--Jordan as row ops.

    Built once per share-index tuple from the pure-Python field ops.
    Pivot swaps only relabel rows, so they cost no pass over the data;
    the rows are renumbered at the end so row ``k`` holds stripe ``k``.
    A Vandermonde submatrix over distinct points never needs one (every
    leading minor is itself Vandermonde, so every pivot is non-zero),
    but any invertible matrix is handled.

    Raises:
        CodingError: ``matrix`` is singular (or not square).
    """
    k = len(matrix)
    a = [[int(v) for v in row] for row in matrix]
    if any(len(row) != k for row in a):
        raise CodingError(f"share submatrix must be square, got {k} rows")
    ops = [(r, k + r, 1) for r in range(k)]  # row r starts as share r
    order = list(range(k))  # order[col]: the row whose pivot is column col
    for col in range(k):
        at = next((p for p in range(col, k) if a[order[p]][col]), None)
        if at is None:
            raise CodingError("singular share submatrix")
        order[col], order[at] = order[at], order[col]
        p = order[col]
        if a[p][col] != 1:
            scale = gfscalar.inv(a[p][col])
            a[p] = [gfscalar.mul(scale, v) for v in a[p]]
            ops.append((p, p, scale))
        for r in range(k):
            f = a[r][col]
            if r != p and f:
                a[r] = [v ^ gfscalar.mul(f, w) for v, w in zip(a[r], a[p])]
                ops.append((r, p, f))
    slot = {row: col for col, row in enumerate(order)}  # inputs keep theirs
    return RowProgram(k, tuple((slot[i], slot.get(j, j), c) for i, j, c in ops))


#: Pair tables built so far, by coefficient (see :func:`_pair_table`).
_PAIR_TABLES: dict[int, np.ndarray] = {}


def _pair_table(c: int) -> np.ndarray:
    """``c * (a, b)`` for every byte pair, indexed by the pair's native
    ``uint16``: 65,536 entries, 128 KiB, read-only.

    Built on first use from ``MUL_TABLE[c]`` over the bytes of every
    ``uint16`` in native order, so it is endian-neutral.  Two threads
    may build one table at once; ``setdefault`` keeps the first and
    hands it to both.
    """
    table = _PAIR_TABLES.get(c)
    if table is None:
        pairs = np.arange(1 << 16, dtype=np.uint16).view(np.uint8)
        table = MUL_TABLE[c][pairs].view(np.uint16)
        table.setflags(write=False)
        table = _PAIR_TABLES.setdefault(c, table)
    return table


def _mul(c: int, src: np.ndarray, dst: np.ndarray, pairs: bool) -> None:
    """``dst = c * src`` in one ``np.take``: two bytes per index through
    the pair table of ``c`` when ``pairs`` (``src`` must then be
    contiguous), else one through ``MUL_TABLE[c]``."""
    if not pairs:
        np.take(MUL_TABLE[c], src, out=dst, mode="clip")
        return
    # uint16 indices cannot miss a 65,536-entry table
    even = src.size & ~1
    np.take(_pair_table(c), src[:even].view(np.uint16),
            out=dst[:even].view(np.uint16), mode="clip")
    if even < src.size:  # an odd last byte
        dst[even] = MUL_TABLE[c, src[even]]


def run(program: RowProgram, stripes) -> np.ndarray:
    """Apply ``program`` to ``stripes``, block by block.

    Args:
        program: The row operations; its input rows are ``stripes``.
        stripes: Equal-length uint8 rows — a ``(t, L)`` array or any
            sequence of 1-D arrays / buffers (only ever read one row at
            a time, so they need not share a matrix).

    Returns:
        ``(program.rows, L)`` C-contiguous uint8 result.
    """
    # memoryview first: zero-copy for bytes, buffers and (strided) array rows
    srcs = [np.asarray(memoryview(row), dtype=np.uint8) for row in stripes]
    if len({src.shape for src in srcs}) != 1 or srcs[0].ndim != 1:
        raise ValueError(f"ragged input rows: {[src.shape for src in srcs]}")
    rows = program.rows
    length = srcs[0].size
    # rows of a block or more multiply through pair tables, whose uint16
    # views need contiguous rows: a strided input row is copied once here
    pairs = length >= _BLOCK
    if pairs:
        srcs = [np.ascontiguousarray(src) for src in srcs]
    out = np.empty((rows, length), dtype=np.uint8)
    tmp = np.empty(min(length, _BLOCK), dtype=np.uint8)
    for lo in range(0, length, _BLOCK):
        hi = min(length, lo + _BLOCK)
        dst = list(out[:, lo:hi])
        cur = [None] * rows + [src[lo:hi] for src in srcs]
        scratch = tmp[: hi - lo]
        for i, j, c in program.ops:
            term, acc = cur[j], cur[i]
            if acc is None or i == j:  # overwrite: row_i = c * row_j
                if c != 1:
                    _mul(c, term, dst[i], pairs)
                elif j >= rows:  # a read-only input: alias it
                    cur[i] = term
                    continue
                else:
                    np.copyto(dst[i], term)
            else:
                if c != 1:
                    _mul(c, term, scratch, pairs)
                    term = scratch
                np.bitwise_xor(acc, term, out=dst[i])
            cur[i] = dst[i]
        for i in range(rows):
            if cur[i] is None:
                dst[i].fill(0)
            elif cur[i] is not dst[i]:
                np.copyto(dst[i], cur[i])
    return out


def matmul(matrix: np.ndarray, stripes) -> np.ndarray:
    """``matrix @ stripes`` over GF(2^8) (see :func:`run` for ``stripes``).

    Args:
        matrix: ``(rows, t)`` uint8 coefficient matrix.
        stripes: ``t`` equal-length uint8 rows.

    Returns:
        ``(rows, L)`` C-contiguous uint8 product.
    """
    m = np.asarray(matrix, dtype=np.uint8)
    if m.ndim != 2 or m.shape[1] != len(stripes):
        raise ValueError(f"shape mismatch: {m.shape} @ {len(stripes)} rows")
    return run(matmul_program(m), stripes)


def encode_blocks(matrix: np.ndarray, data, t: int) -> np.ndarray:
    """Encode chunk bytes against ``matrix``: all output rows in one call."""
    return matmul(matrix, stripe(data, t))
