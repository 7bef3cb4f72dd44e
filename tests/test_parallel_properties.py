"""Property: parallelism is an implementation detail, not a behaviour.

For any workload, running the client at parallelism 1 (the serial
reference path), 2 and 8 must leave the cloud in the same state —
identical object names on every CSP, identical share bytes, identical
chunk tables — and read back identical data.  The pool reorders *when*
ops run, never *what* runs or *where* it lands.  The same holds for
the asyncio session face over the client.

Share objects (40-hex chunk-share names) are compared by content hash;
metadata objects by name only, since their payload embeds wall-clock
timestamps that legitimately differ between runs of the same level.
"""

from __future__ import annotations

import asyncio

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.async_client import AsyncCyrusClient  # noqa: E402
from repro.core.client import CyrusClient  # noqa: E402
from repro.core.config import CyrusConfig  # noqa: E402
from repro.csp.memory import InMemoryCSP  # noqa: E402
from repro.recovery.scrub import _SHARE_NAME  # noqa: E402
from repro.util.hashing import sha1_hex  # noqa: E402

from tests.conftest import SMALL_CHUNKS  # noqa: E402

LEVELS = (1, 2, 8)


async def _session_workload(csps, config, files: list[bytes]):
    """The same puts and reads through an ``AsyncCyrusClient`` session."""
    async with AsyncCyrusClient(csps, config, client_id="alice") as session:
        for i, data in enumerate(files):
            await session.put(f"file-{i}.bin", data)
        reads = []
        for i in range(len(files)):
            reads.append((await session.get(f"file-{i}.bin")).data)
        return tuple(reads), session.client


def _run_workload(files: list[bytes], parallelism: int,
                  via_session: bool = False):
    """Fresh fleet + client; put every file, read every file back.

    ``via_session`` drives the asyncio session instead of the sync
    client.  Returns (reads, per-CSP object maps, chunk table) —
    everything that describes the externally observable outcome.
    """
    csps = [InMemoryCSP(f"csp{i}") for i in range(4)]
    config = CyrusConfig(
        key="prop-key", t=2, n=3,
        parallelism=parallelism,
        max_inflight_per_csp=2 if parallelism > 1 else None,
        **SMALL_CHUNKS,
    )
    if via_session:
        reads, client = asyncio.run(_session_workload(csps, config, files))
    else:
        client = CyrusClient.create(csps, config, client_id="alice")
        try:
            for i, data in enumerate(files):
                client.put(f"file-{i}.bin", data)
            reads = tuple(
                client.get(f"file-{i}.bin").data for i in range(len(files))
            )
        finally:
            client.close()
    objects = {}
    for csp in csps:
        inventory = {}
        for info in csp.list(prefix=""):
            if _SHARE_NAME.match(info.name):
                inventory[info.name] = sha1_hex(csp.download(info.name))
            else:  # metadata: name identity only (payload has timestamps)
                inventory[info.name] = "<meta>"
        objects[csp.csp_id] = inventory
    table = {}
    for chunk_id in client.chunk_table.all_chunk_ids():
        loc = client.chunk_table.get(chunk_id)
        table[chunk_id] = (
            loc.t, loc.n, loc.size, tuple(sorted(loc.placements)),
        )
    return reads, objects, table


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    files=st.lists(
        st.binary(min_size=0, max_size=4096), min_size=1, max_size=3
    )
)
def test_outcome_is_identical_across_parallelism_levels(files):
    baseline = _run_workload(files, parallelism=1)
    base_reads, base_objects, base_table = baseline
    assert base_reads == tuple(files)  # serial round-trip is the oracle
    for level in LEVELS[1:]:
        reads, objects, table = _run_workload(files, parallelism=level)
        assert reads == base_reads, f"parallelism={level} read differs"
        assert table == base_table, f"parallelism={level} chunk table differs"
        assert objects == base_objects, (
            f"parallelism={level} left different objects in the cloud"
        )



@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    files=st.lists(
        st.binary(min_size=0, max_size=4096), min_size=1, max_size=3
    )
)
def test_async_backend_outcome_matches_serial_reference(files):
    """An asyncio session is outcome-identical to the serial sync client.

    The session runs each call on its loop's pipeline executor over the
    same engine, so at every level provider state, chunk tables and
    share hashes must match the sync serial baseline exactly.
    """
    baseline = _run_workload(files, parallelism=1)
    base_reads, base_objects, base_table = baseline
    assert base_reads == tuple(files)
    for level in LEVELS:
        reads, objects, table = _run_workload(
            files, parallelism=level, via_session=True
        )
        assert reads == base_reads, f"async parallelism={level} read differs"
        assert table == base_table, (
            f"async parallelism={level} chunk table differs"
        )
        assert objects == base_objects, (
            f"async parallelism={level} left different objects in the cloud"
        )
