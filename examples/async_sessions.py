#!/usr/bin/env python3
"""Many concurrent CYRUS sessions on one event loop.

The async session facade exists for exactly this: a server-side process
(a sync gateway, a backup fleet controller) holding *hundreds* of
client sessions open at once.  Every ``async with AsyncCyrusClient(...)``
session on a loop shares one bounded pipeline executor, so sessions
cost a small object each, not a thread pool each.

Each session here owns an independent in-memory provider fleet and does
a real put/get round-trip; a barrier holds every session open at the
same instant so the count is genuine concurrency, not throughput.

Run:  python examples/async_sessions.py
"""

import asyncio
import time

from repro import AsyncCyrusClient, CyrusConfig
from repro.csp import InMemoryCSP

SESSIONS = 200


async def one_session(i: int, all_open: asyncio.Event, state: dict) -> int:
    csps = [InMemoryCSP(f"user{i}-csp{j}") for j in range(4)]
    config = CyrusConfig(key=f"user-{i}-secret", t=2, n=3,
                         parallelism=4 if i % 10 == 0 else 1,
                         chunk_min=1024, chunk_avg=4096, chunk_max=32768)
    async with AsyncCyrusClient(csps, config,
                                client_id=f"device-{i}") as session:
        state["open"] += 1
        state["peak"] = max(state["peak"], state["open"])
        if state["open"] == SESSIONS:
            all_open.set()
        await all_open.wait()  # hold until every session is live

        payload = f"user {i}'s document ".encode() * 200
        await session.put("doc.txt", payload)
        blob = await session.get("doc.txt")
        assert blob.data == payload
        state["open"] -= 1
    return len(payload)


async def run_fleet() -> None:
    all_open = asyncio.Event()
    state = {"open": 0, "peak": 0}
    started = time.perf_counter()
    sizes = await asyncio.gather(
        *(one_session(i, all_open, state) for i in range(SESSIONS))
    )
    elapsed = time.perf_counter() - started
    print(f"{SESSIONS} sessions, all simultaneously open "
          f"(peak {state['peak']}), each stored+verified a file: "
          f"{sum(sizes):,} bytes in {elapsed:.2f}s")


def main() -> None:
    asyncio.run(run_fleet())


if __name__ == "__main__":
    main()
