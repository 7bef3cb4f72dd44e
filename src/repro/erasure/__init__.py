"""(t, n) secret sharing via non-systematic Reed--Solomon coding.

CYRUS divides each chunk into ``n`` coded shares such that any ``t``
reconstruct the chunk and any ``t - 1`` reveal nothing directly (the
coded shares never contain plaintext because the code is
non-systematic; paper Figure 5).  The dispersal matrix is a Vandermonde
matrix whose evaluation points are derived from a hash of the user's key
string, so decoding additionally requires the key (paper Section 7.1).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.erasure.rs": ("RSCodec",),
    "repro.erasure.keyed": ("KeyedSharer", "derive_dispersal_points"),
    "repro.erasure.share": ("Share",),
})
