"""Galois field GF(2^8) arithmetic.

The finite-field math underlying CYRUS's non-systematic Reed--Solomon
secret sharing (paper Section 5.1, Figure 5), over the AES polynomial
0x11B:

* :mod:`repro.gf.tables` — the log/exp and 256 x 256 multiplication
  tables the codec kernel reads;
* :mod:`repro.gf.vector` — the numpy row-operation interpreter that
  encodes and decodes every share;
* :mod:`repro.gf.scalar` — pure-Python field and matrix operations,
  built from first principles: the oracle the equivalence suites check
  the kernel against, and the source of the codec's matrices.

The package itself exports nothing: import from its modules.
"""
