"""Shared utilities: hashing, canonical serialization, simulated clocks.

The package itself exports nothing: import from its modules
(``repro.util.clock``, ``repro.util.hashing``, ...).
"""
