"""Pair tables under threads.

A lazy encode runs on the engine's pool workers, so two threads can
build one coefficient's pair table at once (``repro.gf.vector``).  Every
thread's product must be exact, and every thread must end up reading
the one read-only table the cache kept.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np

from repro.gf import scalar as gfscalar
from repro.gf import vector as gfvec

THREADS = 8


def test_threads_racing_for_a_fresh_table_multiply_exactly(monkeypatch):
    tables = {}
    monkeypatch.setattr(gfvec, "_PAIR_TABLES", tables)
    rows = [np.frombuffer(random.Random(k).randbytes(gfvec._BLOCK + 1),
                          dtype=np.uint8) for k in range(THREADS)]
    coefficients = [2, 0x53, 0x8E, 0xFF]
    results = {}
    barrier = threading.Barrier(THREADS, timeout=30)

    def work(k):
        for c in coefficients:  # each one fresh: no thread has built it
            barrier.wait()
            if k % 2:  # half race inside the interpreter, half directly
                product = gfvec.matmul(np.array([[c]], dtype=np.uint8),
                                       [rows[k]])
                table = gfvec._pair_table(c)
            else:
                table = gfvec._pair_table(c)
                product = gfvec.matmul(np.array([[c]], dtype=np.uint8),
                                       [rows[k]])
            results[k, c] = product[0], table

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)

    assert len(results) == THREADS * len(coefficients)
    assert sorted(tables) == sorted(coefficients)
    for c in coefficients:
        oracle = np.array([gfscalar.mul(c, b) for b in range(256)],
                          dtype=np.uint8)
        assert not tables[c].flags.writeable
        for k in range(THREADS):
            product, table = results[k, c]
            assert table is tables[c]
            assert np.array_equal(product, oracle[rows[k]]), (k, c)
