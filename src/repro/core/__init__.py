"""The CYRUS core: client, upload/download pipelines, sync, migration.

This package realises the paper's Table 3 API on top of the substrates:
chunking, keyed secret sharing, consistent-hash placement with platform
clusters, optimised downlink selection, scattered metadata, optimistic
concurrency with after-the-fact conflict detection, and lazy share
migration on CSP change.

The package itself exports nothing: import public names from the
top-level :mod:`repro` façade, or from the implementation modules
(``repro.core.client``, ``repro.core.transfer``, ...).
"""
