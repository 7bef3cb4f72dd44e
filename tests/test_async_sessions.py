"""Scale acceptance: many concurrent AsyncCyrusClient sessions, one process.

The async facade's reason to exist: a thousand ``async with`` sessions
on one event loop share a single :class:`_LoopRuntime` (one bounded
pipeline executor) instead of costing a thousand thread pools.  The
tests *force* simultaneity — every session must be open at the same
instant before any is allowed to transfer — so the session count is a
proven concurrency level, not a sequential throughput number.

The 1000-session run is ``slow`` (CI's stress job executes it under a
faulthandler hang dump); the 64-session smoke keeps the same shape in
tier-1.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.async_client import AsyncCyrusClient, _LoopRuntime
from repro.core.config import CyrusConfig
from repro.csp.memory import InMemoryCSP
from repro.errors import TransferError

from tests.conftest import SMALL_CHUNKS


def _payload(i: int) -> bytes:
    return (f"session-{i}:".encode()) + bytes(range(256)) * 3


async def _drive_sessions(count: int) -> None:
    """Open ``count`` sessions, hold them all open at once, then make
    each do a real put/get round-trip against its own in-memory fleet."""
    opened = 0
    all_open = asyncio.Event()

    async def one_session(i: int) -> int:
        nonlocal opened
        csps = [InMemoryCSP(f"s{i}-csp{j}") for j in range(4)]
        # a slice of the fleet scatters through its own engine's pool;
        # the rest take the serial path on the pipeline executor
        config = CyrusConfig(
            key=f"key-{i}", t=2, n=3,
            parallelism=4 if i % 10 == 0 else 1,
            **SMALL_CHUNKS,
        )
        async with AsyncCyrusClient(csps, config,
                                    client_id=f"client-{i}") as session:
            opened += 1
            if opened == count:
                all_open.set()
            # the simultaneity barrier: nobody transfers until every
            # session is open, so `count` IS the concurrency level
            await asyncio.wait_for(all_open.wait(), timeout=120)
            await session.put(f"file-{i}.bin", _payload(i))
            blob = await session.get(f"file-{i}.bin")
            assert blob.data == _payload(i)
            listing = await session.list_files()
            assert [e.name for e in listing] == [f"file-{i}.bin"]
        return i

    done = await asyncio.gather(*(one_session(i) for i in range(count)))
    assert sorted(done) == list(range(count))
    # every session on this loop shared one runtime...
    assert len(_LoopRuntime._registry) == 0  # ...and all refs were released


def test_sixty_four_concurrent_sessions_smoke():
    asyncio.run(_drive_sessions(64))
    assert len(_LoopRuntime._registry) == 0


@pytest.mark.slow
def test_thousand_concurrent_sessions():
    asyncio.run(_drive_sessions(1000))
    assert len(_LoopRuntime._registry) == 0


def test_sessions_share_one_loop_runtime():
    async def script():
        csps_a = [InMemoryCSP(f"a{j}") for j in range(4)]
        csps_b = [InMemoryCSP(f"b{j}") for j in range(4)]
        config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        async with AsyncCyrusClient(csps_a, config, client_id="a") as sa:
            async with AsyncCyrusClient(csps_b, config, client_id="b") as sb:
                assert len(_LoopRuntime._registry) == 1
                runtime = next(iter(_LoopRuntime._registry.values()))
                assert runtime.refs == 2
                # engines stay per-session
                assert sa.client.engine is not sb.client.engine
                await sa.put("x", b"1")
                await sb.put("y", b"2")
            assert runtime.refs == 1
        assert len(_LoopRuntime._registry) == 0

    asyncio.run(script())


def test_session_api_outside_context_raises():
    client = AsyncCyrusClient(
        [InMemoryCSP("c0")], CyrusConfig(key="k", t=1, n=1, **SMALL_CHUNKS)
    )
    with pytest.raises(TransferError, match="not open"):
        client.client  # noqa: B018

    async def script():
        with pytest.raises(TransferError, match="not open"):
            await client.put("x", b"d")

    asyncio.run(script())


def test_session_rejects_engine_kwarg():
    with pytest.raises(TransferError, match="owns its engine"):
        AsyncCyrusClient(
            [InMemoryCSP("c0")],
            CyrusConfig(key="k", t=1, n=1, **SMALL_CHUNKS),
            engine=object(),
        )


def test_session_survives_exception_and_still_cleans_up():
    async def script():
        csps = [InMemoryCSP(f"c{j}") for j in range(3)]
        config = CyrusConfig(key="k", t=2, n=3, **SMALL_CHUNKS)
        with pytest.raises(RuntimeError, match="boom"):
            async with AsyncCyrusClient(csps, config) as session:
                await session.put("f", b"data")
                raise RuntimeError("boom")
        assert len(_LoopRuntime._registry) == 0

    asyncio.run(script())
