"""Scalar GF(2^8) operations.

These are the readable reference implementations; the erasure codec uses
the vectorised kernels in :mod:`repro.gf.vector` for bulk data.  All
functions operate on Python ints in ``[0, 255]`` and raise
:class:`ValueError` on out-of-range inputs so that coding bugs surface at
the field boundary rather than as silent wraparound.
"""

from __future__ import annotations

from repro.gf.tables import EXP_TABLE, GF_ORDER, GF_POLY, LOG_TABLE

__all__ = [
    "GF_ORDER",
    "GF_POLY",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
]


def _check(a: int) -> int:
    if not 0 <= a < GF_ORDER:
        raise ValueError(f"value {a!r} outside GF(2^8)")
    return a


def gf_add(a: int, b: int) -> int:
    """Field addition (== subtraction): bitwise XOR."""
    return _check(a) ^ _check(b)


def gf_mul(a: int, b: int) -> int:
    """Field multiplication via log/exp tables."""
    _check(a)
    _check(b)
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]])


def gf_div(a: int, b: int) -> int:
    """Field division ``a / b``; raises ZeroDivisionError when b == 0."""
    _check(a)
    _check(b)
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] - LOG_TABLE[b] + 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises ZeroDivisionError for zero."""
    _check(a)
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return int(EXP_TABLE[255 - LOG_TABLE[a]])


def gf_pow(a: int, k: int) -> int:
    """Field exponentiation ``a ** k`` for integer k >= 0 (and k < 0 via inverse)."""
    _check(a)
    if a == 0:
        if k == 0:
            return 1
        if k < 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^8)")
        return 0
    log_a = int(LOG_TABLE[a])
    return int(EXP_TABLE[(log_a * k) % 255 + (255 if (log_a * k) % 255 < 0 else 0)])
