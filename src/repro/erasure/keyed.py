"""Key-string-derived dispersal matrices.

Paper Section 5.1: "we take the R-S code's dispersal matrix as the
Vandermonde matrix generated by a t-dimensional vector computed from a
consistent hash of the user's key string".  An attacker who obtains
``t`` shares but not the key string cannot reconstruct the chunk without
also guessing the evaluation points (Section 7.1).

``derive_dispersal_points`` stretches the key with iterated SHA-1 and
rejection-samples distinct non-zero field elements, so the same key
always yields the same matrix on every client — a requirement for
multiple clients to decode each other's uploads.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.errors import CodingError
from repro.erasure.rs import RSCodec
from repro.erasure.share import Share


def derive_dispersal_points(key: str, n: int) -> list[int]:
    """Derive ``n`` distinct non-zero GF(2^8) elements from a key string."""
    if n < 1 or n > 255:
        raise CodingError(f"n must be in [1, 255], got {n}")
    points: list[int] = []
    seen: set[int] = set()
    counter = 0
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    while len(points) < n:
        for byte in digest:
            if byte != 0 and byte not in seen:
                seen.add(byte)
                points.append(byte)
                if len(points) == n:
                    break
        counter += 1
        digest = hashlib.sha1(
            key.encode("utf-8") + counter.to_bytes(4, "big")
        ).digest()
    return points


class KeyedSharer:
    """A (t, n) secret sharer whose dispersal matrix depends on a key string.

    This is the object CYRUS clients actually use: same key + same (t, n)
    on two clients produce byte-identical shares for the same chunk, and a
    client holding shares but no key cannot decode.
    """

    def __init__(self, key: str, t: int, n: int):
        self.key = key
        self.t = t
        self.n = n
        self._codec = RSCodec(t, n, points=derive_dispersal_points(key, n))

    @property
    def codec(self) -> RSCodec:
        """The underlying keyed codec (dispersal points derived from key)."""
        return self._codec

    def split(self, data: bytes) -> list[Share]:
        """Encode ``data`` into ``n`` keyed shares."""
        return self._codec.encode(data)

    def split_indices(self, data: bytes, indices: Sequence[int]) -> list[Share]:
        """Regenerate only the shares with the given indices."""
        return self._codec.encode_rows(data, indices)

    def join(self, shares: Sequence[Share]) -> bytes:
        """Reconstruct data from any ``t`` distinct shares."""
        return self._codec.decode(shares)

    def join_verified(self, shares: Sequence[Share], verify) -> bytes:
        """Reconstruct despite corrupted shares (see
        :meth:`repro.erasure.rs.RSCodec.decode_verified`)."""
        return self._codec.decode_verified(shares, verify)
