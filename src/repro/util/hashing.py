"""Hashing helpers.

Share names follow the paper's scheme H'(index, H(chunk.content)) from
Section 5.1: the inner SHA-1 identifies the chunk, the outer hash mixes
in the share index so no CSP can learn which index it holds, yet any
client can recompute the name.

A file version is named by :func:`file_id_of`, a SHA-1 over its size
and its ChunkMap's ordered chunk ids: the chunk ids already commit to
every byte, so no pass over the whole file is needed to name or check
one.

It also holds the *verification lane* (:class:`HashLane`): a SHA-1 pass
whose verdict nothing needs at once runs beside the op that asked for
it, on a process-wide pool sized to the CPUs this process may use, and
the op joins it only where it needs the result (DESIGN.md, "Concurrency
model").
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:  # pragma: no cover - loaded with the first threaded lane
    from concurrent.futures import Future, ThreadPoolExecutor


def sha1_hex(data: bytes) -> str:
    """Hex SHA-1 digest — the paper's H, used for chunk IDs."""
    return hashlib.sha1(data).hexdigest()


def file_id_of(size: int, chunk_ids: Iterable[str]) -> str:
    """A version's file id: SHA-1 over ``size`` (8 bytes, big-endian)
    and its ordered raw 20-byte chunk ids."""
    return hashlib.sha1(
        size.to_bytes(8, "big") + b"".join(map(bytes.fromhex, chunk_ids))
    ).hexdigest()


def share_name(index: int, chunk_id: str) -> str:
    """Share object name H'(index, H(chunk.content)).

    ``chunk_id`` is the hex SHA-1 of the chunk content.  H' is SHA-1 over
    the index and the chunk id; the paper allows any hash here.
    """
    if index < 0:
        raise ValueError("share index must be non-negative")
    payload = index.to_bytes(4, "big") + bytes.fromhex(chunk_id)
    return hashlib.sha1(payload).hexdigest()


def stable_hash64(text: str) -> int:
    """A stable 64-bit hash of a string (SHA-1 prefix).

    Used wherever we need deterministic pseudo-randomness that must not
    vary across Python processes (``hash()`` is salted per process).
    """
    return int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest()[:8], "big")


# -- the verification lane ----------------------------------------------------

#: An op hashing fewer bytes runs its lane inline: a hand-off costs a few
#: microseconds per job, against about 1 ms of SHA-1 per MiB it could overlap.
LANE_MIN_BYTES = 1 << 20

LANE_BYTES = "cyrus_hash_lane_bytes_total"
LANE_WAIT = "cyrus_hash_lane_wait_seconds"

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cpus() -> int:
    """CPUs this process may run on (the pool's width)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lane_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: a process whose ops all hash inline never
            # pays for concurrent.futures (and its logging import)
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=_cpus(),
                                       thread_name_prefix="cyrus-hash-lane")
        return _pool


def _drop_pool_in_child() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool_in_child)


class _Done:
    """An inline job's outcome: what a ``Future`` would hold, without
    the condition variable nobody waits on."""

    __slots__ = ("_value", "_error")

    def set_result(self, value) -> None:
        self._value, self._error = value, None

    def set_exception(self, error: Exception) -> None:
        self._value, self._error = None, error

    def done(self) -> bool:
        return True

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


if TYPE_CHECKING:  # pragma: no cover
    #: What :meth:`HashLane.submit` returns; ``result()`` is the job's value.
    LaneJob = Union[Future, _Done]


def _run(job: LaneJob, fn, args) -> None:
    try:
        job.set_result(fn(*args))
    except Exception as exc:  # re-raised on the caller by join()
        job.set_exception(exc)


class HashLane:
    """The hashing jobs of one put or get, each handed to the
    process-wide pool as it is submitted, so they run side by side.

    An op of fewer than :data:`LANE_MIN_BYTES`, or on a one-CPU host,
    runs each job inline at :meth:`submit`; the caller's code is the
    same either way.  :meth:`join` returns a job's result, or re-raises
    its exception, on the caller.  Leaving the ``with`` block waits for
    every job, so nothing of the op is queued or running once it
    returns, and re-raises the first job's failure unless the block is
    already raising.  ``metrics`` (a ``MetricsRegistry``) gets the
    bytes a threaded lane hashed and the time its caller waited.
    """

    def __init__(self, nbytes: int, metrics=None):
        self._threaded = nbytes >= LANE_MIN_BYTES and _cpus() > 1
        self._submitted: list[LaneJob] = []
        # a parallel engine's workers submit share digests concurrently
        self._lock = threading.Lock()
        self._metrics = metrics if self._threaded else None

    def submit(self, kind: str, nbytes: int, fn, *args) -> LaneJob:
        """Run ``fn(*args)``, hashing ``nbytes`` bytes of ``kind``
        (``chunk`` or ``share``)."""
        if self._threaded:
            from concurrent.futures import Future

            job = Future()
        else:
            job = _Done()
        with self._lock:
            self._submitted.append(job)
        if not self._threaded:
            _run(job, fn, args)
            return job
        if self._metrics is not None and nbytes:
            self._metrics.inc(LANE_BYTES, nbytes, kind=kind)
        _lane_pool().submit(_run, job, fn, args)
        return job

    def join(self, job: LaneJob):
        """The job's result, blocking until the lane has run it."""
        if self._metrics is None or job.done():
            return job.result()
        started = time.perf_counter()
        try:
            return job.result()
        finally:
            self._metrics.observe(LANE_WAIT, time.perf_counter() - started)

    def __enter__(self) -> "HashLane":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        with self._lock:
            jobs = list(self._submitted)
        if self._threaded:
            from concurrent.futures import wait

            wait(jobs)
        if exc_type is None:
            for job in jobs:
                job.result()
