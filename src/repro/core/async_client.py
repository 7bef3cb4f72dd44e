"""The asynchronous client session: ``async with AsyncCyrusClient(...)``.

:class:`AsyncCyrusClient` is the event-loop face of
:class:`repro.core.client.CyrusClient`: an async context manager that
builds the sync client with :meth:`CyrusClient.create` — so with its
default engine, serial at ``parallelism=1`` and the scatter/gather pool
above — and exposes every Table 3 call as a coroutine.

Scale model (the thousand-session property): all sessions on one loop
share a single :class:`_LoopRuntime`, one bounded *pipeline* executor
that runs the synchronous pipeline bodies (chunk/encode/transfer/
metadata) off the loop.  A thousand concurrent ``async with`` sessions
therefore cost a thousand small client objects plus one thread pool.
The runtime is refcounted per loop and torn down when its last session
exits.  The loop never blocks: a call runs start to finish on a
pipeline thread, provider I/O included.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.csp.base import CloudProvider
from repro.errors import TransferError

#: Width of the shared per-loop executor: the most pipeline calls (and
#: so blocking provider calls outside any session's pool) running at
#: once per loop.
_PIPELINE_WORKERS = 32


class _LoopRuntime:
    """Refcounted per-event-loop shared pipeline executor.

    ``acquire(loop)`` returns the loop's runtime, creating it on first
    use; every ``acquire`` must be paired with a ``release``, and the
    executor shuts down when the count reaches zero.
    """

    _registry: dict[int, "_LoopRuntime"] = {}
    _registry_lock = threading.Lock()

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop = loop
        self.pipeline = ThreadPoolExecutor(
            max_workers=_PIPELINE_WORKERS,
            thread_name_prefix="cyrus-aio-pipeline",
        )
        self.refs = 0

    @classmethod
    def acquire(cls, loop: asyncio.AbstractEventLoop) -> "_LoopRuntime":
        with cls._registry_lock:
            runtime = cls._registry.get(id(loop))
            if runtime is None or runtime.loop is not loop:
                runtime = cls(loop)
                cls._registry[id(loop)] = runtime
            runtime.refs += 1
            return runtime

    @classmethod
    def release(cls, runtime: "_LoopRuntime") -> None:
        with cls._registry_lock:
            runtime.refs -= 1
            if runtime.refs > 0:
                return
            cls._registry.pop(id(runtime.loop), None)
        runtime.pipeline.shutdown(wait=False, cancel_futures=False)


class AsyncCyrusClient:
    """An asyncio session over a CYRUS cloud.

    Usage::

        async with AsyncCyrusClient(providers, config) as session:
            await session.put("a.txt", b"hello")
            report = await session.get("a.txt")

    Construction is lazy: the runtime and sync client are built inside
    ``__aenter__``; outside the context every operation raises
    :class:`TransferError`.

    Keyword arguments beyond ``client_id`` are forwarded verbatim to
    :meth:`CyrusClient.create` (``journal``, ``cache``, ``selector``,
    ``debt_ledger`` ...), except ``engine``, which the session owns.
    """

    def __init__(
        self,
        providers: Sequence[CloudProvider],
        config: CyrusConfig,
        client_id: str = "client-1",
        **client_kwargs,
    ):
        if "engine" in client_kwargs:
            raise TransferError(
                "AsyncCyrusClient owns its engine; configure concurrency "
                "via CyrusConfig (parallelism / max_inflight_*)"
            )
        self._providers = list(providers)
        self._config = config
        self._client_id = client_id
        self._client_kwargs = client_kwargs
        self._client: CyrusClient | None = None
        self._runtime: _LoopRuntime | None = None

    # -- lifecycle ---------------------------------------------------------

    async def __aenter__(self) -> "AsyncCyrusClient":
        if self._client is not None:
            raise TransferError("session already open")
        runtime = _LoopRuntime.acquire(asyncio.get_running_loop())
        try:
            client = CyrusClient.create(
                self._providers, self._config, client_id=self._client_id,
                **self._client_kwargs,
            )
        except BaseException:
            _LoopRuntime.release(runtime)
            raise
        self._runtime = runtime
        self._client = client
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close the session: the sync client's engine, then the runtime."""
        client, self._client = self._client, None
        runtime, self._runtime = self._runtime, None
        if client is not None:
            client.close()
        if runtime is not None:
            _LoopRuntime.release(runtime)

    @property
    def client(self) -> CyrusClient:
        """The underlying sync client (open sessions only) — for
        advanced access to trees, stats and maintenance entry points."""
        if self._client is None:
            raise TransferError("session is not open (use 'async with')")
        return self._client

    # -- offload plumbing --------------------------------------------------

    async def _call(self, fn, *args, **kwargs):
        """Run one synchronous pipeline call on the shared executor;
        the loop stays free to serve every other session."""
        runtime = self._runtime
        if runtime is None:
            raise TransferError("session is not open (use 'async with')")
        return await asyncio.get_running_loop().run_in_executor(
            runtime.pipeline, functools.partial(fn, *args, **kwargs)
        )

    # -- the Table 3 API, as coroutines ------------------------------------

    async def put(self, name: str, data: bytes, sync_first: bool = True):
        """Upload a file version (Algorithm 2)."""
        return await self._call(self.client.put, name, data,
                                sync_first=sync_first)

    async def get(self, name: str, version: int = 0,
                  sync_first: bool = True):
        """Download a file (Algorithm 3); ``version`` walks history."""
        return await self._call(self.client.get, name, version=version,
                                sync_first=sync_first)

    async def get_range(self, name: str, offset: int, length: int,
                        version: int = 0, sync_first: bool = True):
        """Download only ``[offset, offset + length)`` of a file."""
        return await self._call(self.client.get_range, name, offset,
                                length, version=version,
                                sync_first=sync_first)

    async def delete(self, name: str, sync_first: bool = True):
        """Tombstone a file (metadata marked deleted; shares kept)."""
        return await self._call(self.client.delete, name,
                                sync_first=sync_first)

    async def sync(self):
        """Pull remote metadata changes (Section 5.4)."""
        return await self._call(self.client.sync)

    async def list_files(self, directory: str = "",
                         sync_first: bool = True):
        """Live files under a directory prefix with their head nodes."""
        return await self._call(self.client.list_files, directory,
                                sync_first=sync_first)

    async def history(self, name: str):
        """Version chain of a file, newest first (Figure 11c)."""
        return await self._call(self.client.history, name)

    async def recover(self):
        """Rebuild all local state from the CSPs alone."""
        return await self._call(self.client.recover)

    async def add_csp(self, provider: CloudProvider) -> None:
        """Attach a new CSP account (Section 5.5)."""
        return await self._call(self.client.add_csp, provider)

    async def remove_csp(self, csp_id: str) -> None:
        """Detach a CSP; its chunk shares migrate lazily on download."""
        return await self._call(self.client.remove_csp, csp_id)

    async def storage_stats(self) -> dict:
        """Logical vs stored bytes and the dedup/redundancy breakdown."""
        return await self._call(self.client.storage_stats)

    async def scrub(self, **kwargs):
        """One anti-entropy pass over the chunk table."""
        return await self._call(self.client.scrub, **kwargs)

    async def repair_debts(self, **kwargs):
        """Drain the redundancy-debt ledger."""
        return await self._call(self.client.repair_debts, **kwargs)

    async def run_recovery(self):
        """Replay incomplete journal intents from a crashed process."""
        return await self._call(self.client.run_recovery)
