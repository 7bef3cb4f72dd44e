"""Content-defined chunking (paper Section 5.1).

CYRUS cuts files into chunks at content-dependent boundaries so that a
local edit only changes the chunks whose bytes changed; unchanged chunks
keep their identity and are deduplicated.  This package provides:

* :class:`ContentDefinedChunker` — the chunker, one vectorised rolling
  hash whose only settings are the chunk sizes and the window;
* :class:`RabinFingerprint` — the classic GF(2) polynomial rolling hash
  the paper cites, kept as a readable oracle for the tests;
* :class:`FixedSizeChunker` — the baseline the paper contrasts against.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.chunking.chunk": ("Chunk",),
    "repro.chunking.cdc": ("ContentDefinedChunker",),
    "repro.chunking.fixed": ("FixedSizeChunker",),
    "repro.chunking.rabin": ("RabinFingerprint",),
})
