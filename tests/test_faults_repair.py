"""Section 5.1 corruption repair, end to end through fault injection.

The keyed non-systematic R-S code tolerates up to ``n - t`` corrupted
shares: decoding searches for a t-subset whose reconstruction verifies
against the chunk's content id.  These tests drive that path with
:class:`FaultyProvider` bit-flip corruption (the share *in transit* is
corrupted; the stored object stays intact), and check that retry
exhaustion surfaces a :class:`TransferError` carrying the per-CSP
attempt history.
"""

from __future__ import annotations

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.uploader import get_sharer
from repro.csp.memory import InMemoryCSP
from repro.erasure import Share
from repro.errors import (
    CodingError,
    InsufficientSharesError,
    TransferError,
)
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.selection import RoundRobinSelector
from repro.util.hashing import sha1_hex

from tests.conftest import SMALL_CHUNKS, deterministic_bytes


def _flip_bit(blob: bytes, pos: int = 0) -> bytes:
    out = bytearray(blob)
    out[pos % len(out)] ^= 0x01
    return bytes(out)


class TestJoinVerified:
    """The decoding primitive the repair path relies on."""

    def _shares(self, key: str, t: int, n: int, payload: bytes):
        sharer = get_sharer(key, t, n)
        return sharer, sharer.split(payload)

    def test_recovers_with_up_to_n_minus_t_corrupt_shares(self):
        payload = deterministic_bytes(700, seed=1)
        chunk_id = sha1_hex(payload)
        sharer, shares = self._shares("k", 2, 4, payload)
        corrupted = [
            Share(index=s.index, data=_flip_bit(s.data, s.index), t=s.t,
                  n=s.n, chunk_size=s.chunk_size)
            if s.index < 2 else s  # corrupt n - t = 2 of the 4 shares
            for s in shares
        ]
        recovered = sharer.join_verified(
            corrupted, verify=lambda p: sha1_hex(p) == chunk_id
        )
        assert recovered == payload

    def test_fails_beyond_n_minus_t(self):
        payload = deterministic_bytes(300, seed=2)
        chunk_id = sha1_hex(payload)
        sharer, shares = self._shares("k", 2, 4, payload)
        corrupted = [
            Share(index=s.index, data=_flip_bit(s.data, s.index), t=s.t,
                  n=s.n, chunk_size=s.chunk_size)
            if s.index < 3 else s  # 3 corrupt: no clean t-subset remains
            for s in shares
        ]
        with pytest.raises(CodingError):
            sharer.join_verified(
                corrupted, verify=lambda p: sha1_hex(p) == chunk_id
            )


class TestEndToEndRepair:
    def test_bitflip_corruption_on_one_csp_recovers_byte_identical(self):
        # three providers, (t, n) = (2, 3): every chunk's shares land on
        # all three, downloads pick two — round-robin guarantees the
        # corrupting provider is selected for some chunks of a
        # multi-chunk file, forcing the repair path to run
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CORRUPT, csp_ids=("csp0",),
                       flip_bits=5)],
            seed=11,
        )
        providers = [
            FaultyProvider(InMemoryCSP(f"csp{i}"), plan) for i in range(3)
        ]
        config = CyrusConfig(key="repair-key", t=2, n=3, **SMALL_CHUNKS)
        client = CyrusClient.create(
            providers, config, selector=RoundRobinSelector()
        )
        data = deterministic_bytes(8000, seed=3)
        client.put("big.bin", data)
        report = client.get("big.bin")
        assert report.data == data
        corrupt_events = providers[0].injected_faults.get(FaultKind.CORRUPT, 0)
        assert corrupt_events >= 1  # the corrupt provider was really read

    def test_fresh_device_recovers_despite_corrupting_provider(self):
        # chunk shares have pure 40-hex names while metadata shares use
        # the "md-" prefix, so a per-prefix rule corrupts every chunk
        # download from csp0 but leaves the metadata sync clean: a
        # second device can recover the namespace, then repair its way
        # through the corrupted share fetches
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CORRUPT, csp_ids=("csp0",),
                       name_prefix=prefix)
             for prefix in "0123456789abcdef"],
            seed=4,
        )
        providers = [
            FaultyProvider(InMemoryCSP(f"csp{i}"), plan) for i in range(3)
        ]
        config = CyrusConfig(key="meta-key", t=2, n=3, **SMALL_CHUNKS)
        client = CyrusClient.create(providers, config, client_id="alice")
        data = deterministic_bytes(4000, seed=5)
        client.put("doc.txt", data)
        fresh = CyrusClient.create(
            providers, config, client_id="bob",
            selector=RoundRobinSelector(),
        )
        fresh.recover()
        assert fresh.get("doc.txt").data == data


class TestRetryExhaustion:
    def test_exhaustion_raises_transfer_error_with_attempt_history(
        self, tmp_path
    ):
        inners = [InMemoryCSP(f"csp{i}") for i in range(4)]
        config = CyrusConfig(key="hist-key", t=2, n=3, **SMALL_CHUNKS)
        writer = CyrusClient.create(inners, config, client_id="alice")
        data = deterministic_bytes(900, seed=6)
        writer.put("gone.bin", data)

        # a second device over the same stores, but every download is an
        # outage; it learns the namespace from a local snapshot so the
        # share gather (not the metadata sync) is what exhausts retries
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.OUTAGE, ops=("download",))], seed=7
        )
        faulty = [FaultyProvider(c, plan) for c in inners]
        reader = CyrusClient.create(faulty, config, client_id="bob")
        snapshot = tmp_path / "tree.snap"
        writer.save_local_state(snapshot)
        reader.load_local_state(snapshot)

        with pytest.raises(TransferError) as ei:
            reader.get("gone.bin", sync_first=False)
        exc = ei.value
        # also an InsufficientSharesError, so legacy callers still catch it
        assert isinstance(exc, InsufficientSharesError)
        assert exc.attempts, "exhaustion must carry the attempt history"
        assert all(not a.ok for a in exc.attempts)
        by_csp = exc.attempts_by_csp()
        assert set(by_csp) <= {f"csp{i}" for i in range(4)}
        assert len(by_csp) >= 2  # it failed over before giving up
        assert all(
            a.error_type in ("CSPUnavailableError", "CircuitOpenError")
            for tries in by_csp.values() for a in tries
        )
        # transient failures were retried on the same provider
        assert any(len(tries) >= 2 for tries in by_csp.values())
