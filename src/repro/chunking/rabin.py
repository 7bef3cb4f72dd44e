"""Rabin fingerprinting by random polynomials (reference implementation).

This is the GF(2) polynomial rolling hash from Rabin (1981) that the
paper cites for chunk-boundary detection.  The fingerprint of a byte
window is the residue of the window, read as a polynomial over GF(2),
modulo an irreducible polynomial.  Appending a byte is a shift-and-
reduce; expiring the oldest byte subtracts its (precomputed)
contribution, so the window slides in O(1) per byte.

This implementation favours clarity over speed: it is the paper-fidelity
oracle the tests cut with, while
:class:`repro.chunking.cdc.ContentDefinedChunker` uses a vectorised
multiplicative hash for every real file.
"""

from __future__ import annotations

#: A degree-53 irreducible polynomial over GF(2) (LLNL rabin-karp tables
#: use similar degrees; any irreducible polynomial works).
DEFAULT_POLY = 0x3DA3358B4DC173

#: Default sliding-window width in bytes.
DEFAULT_WINDOW = 16


def _poly_degree(poly: int) -> int:
    return poly.bit_length() - 1


def _poly_mod(value: int, poly: int, degree: int) -> int:
    """Reduce ``value`` modulo ``poly`` over GF(2)."""
    while value.bit_length() - 1 >= degree:
        value ^= poly << (value.bit_length() - 1 - degree)
    return value


class RabinFingerprint:
    """A sliding-window Rabin fingerprint.

    Args:
        poly: Irreducible GF(2) polynomial used as the modulus.
        window: Window width in bytes.
    """

    def __init__(self, poly: int = DEFAULT_POLY, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if poly.bit_length() < 2:
            raise ValueError("polynomial must have degree >= 1")
        self.poly = poly
        self.window = window
        self._degree = _poly_degree(poly)
        # shift_table[b] = fingerprint contribution of byte b once it has
        # been shifted window bytes to the left (i.e. what to XOR out when
        # the byte leaves the window)
        self._out_table = [
            _poly_mod(b << (8 * window), poly, self._degree) for b in range(256)
        ]
        # push_table[hi] = reduction of the top 8 bits after a left shift
        self._push_table = [
            _poly_mod(hi << self._degree, poly, self._degree) for hi in range(256)
        ]
        self.reset()

    def reset(self) -> None:
        """Clear the window and fingerprint."""
        self._fp = 0
        self._buf: list[int] = []
        self._pos = 0

    @property
    def value(self) -> int:
        """Current fingerprint of the bytes in the window."""
        return self._fp

    def push(self, byte: int) -> int:
        """Slide the window one byte forward; returns the new fingerprint."""
        if not 0 <= byte < 256:
            raise ValueError(f"byte out of range: {byte}")
        old = -1
        if len(self._buf) == self.window:
            old = self._buf[self._pos]
            self._buf[self._pos] = byte
            self._pos = (self._pos + 1) % self.window
        else:
            self._buf.append(byte)
        # append: fp = (fp << 8 | byte) mod poly
        if self._degree >= 8:
            hi = (self._fp >> (self._degree - 8)) & 0xFF
            self._fp = ((self._fp << 8) & ((1 << self._degree) - 1)) | byte
            self._fp ^= self._push_table[hi]
        else:
            self._fp = _poly_mod((self._fp << 8) | byte, self.poly, self._degree)
        # expire: after the shift the departing byte sits at x^(8*window)
        if old >= 0:
            self._fp ^= self._out_table[old]
        return self._fp

    def update(self, data: bytes) -> int:
        """Push every byte of ``data``; returns the final fingerprint."""
        for b in data:
            self.push(b)
        return self._fp

    def fingerprint(self, data: bytes) -> int:
        """Fingerprint of the last ``window`` bytes of ``data`` from scratch."""
        self.reset()
        return self.update(data)
