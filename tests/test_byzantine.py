"""Byzantine share defense: the chunk-id check after decode detects,
per-share fingerprints attribute.

``FaultKind.CORRUPT_READ`` models a provider whose *stored* data is
wrong — tampered or rotted — so every fetch of a given object returns
the same wrong bytes (unlike ``CORRUPT``'s per-transfer line noise).
A lying share makes its chunk fail its id; the downloader's repair
then finds the liar by its fingerprint, attributes a ``corrupt_share``
health event, reads an honest provider's share instead, and
quarantines repeat offenders — while every read still returns
bit-exact plaintext as long as at most ``n - t`` providers lie.
"""

from __future__ import annotations

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine
from repro.csp.memory import InMemoryCSP
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.redundancy import DebtLedger
from repro.selection import RoundRobinSelector
from repro.util.clock import SimClock

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CONFIG = dict(key="byz-key", t=2, n=3, **SMALL_CHUNKS)

#: Chunk-share objects have bare 40-hex names; metadata shares use the
#: ``md-`` prefix.  Per-prefix rules corrupt every chunk share a lying
#: provider serves while leaving the metadata sync clean.
HEX = "0123456789abcdef"


def _byzantine_plan(seed, liar_ids, kind=FaultKind.CORRUPT_READ):
    return FaultPlan(
        [FaultSpec(kind=kind, csp_ids=tuple(liar_ids), name_prefix=p,
                   flip_bits=5)
         for p in HEX],
        seed=seed,
    )


def _reader_world(tmp_path, seed, liar_ids, parallelism=1):
    """A writer over clean providers, then a fresh reader over the same
    stores wrapped so ``liar_ids`` serve corrupt chunk shares."""
    inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
    writer = CyrusClient.create(
        inner, CyrusConfig(**CONFIG), client_id="writer",
    )
    data = deterministic_bytes(12000, seed=seed)
    writer.put("big.bin", data)

    clock = SimClock()
    wrapped = [
        FaultyProvider(p, _byzantine_plan(seed, liar_ids), clock=clock)
        for p in inner
    ]
    config = CyrusConfig(parallelism=parallelism, **CONFIG)
    engine = DirectEngine({p.csp_id: p for p in wrapped}, clock=clock)
    reader = CyrusClient.create(
        wrapped, config, client_id="reader", engine=engine,
        selector=RoundRobinSelector(),
        debt_ledger=DebtLedger(tmp_path / "debts.jsonl", fsync=False),
    )
    return reader, data


class TestCorruptReadFault:
    """The fault primitive itself: persistent, seeded, download-only."""

    def test_same_object_corrupts_identically_every_fetch(self):
        inner = InMemoryCSP("csp0")
        inner.upload("obj", b"x" * 256)
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CORRUPT_READ, flip_bits=3)], seed=9,
        )
        faulty = FaultyProvider(inner, plan)
        first = faulty.download("obj")
        assert first != b"x" * 256
        assert faulty.download("obj") == first  # a Byzantine *store*

    def test_transient_corrupt_differs_between_fetches(self):
        inner = InMemoryCSP("csp0")
        inner.upload("obj", b"x" * 256)
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CORRUPT, flip_bits=3)], seed=9,
        )
        faulty = FaultyProvider(inner, plan)
        assert faulty.download("obj") != faulty.download("obj")

    def test_corrupt_read_never_fires_on_uploads(self):
        inner = InMemoryCSP("csp0")
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CORRUPT_READ)], seed=9,
        )
        faulty = FaultyProvider(inner, plan)
        faulty.upload("obj", b"clean")
        assert inner.download("obj") == b"clean"


class TestByzantineReads:
    def test_reads_are_bit_exact_despite_a_lying_provider(self, tmp_path,
                                                          fault_seed):
        reader, data = _reader_world(tmp_path, fault_seed, ("csp0",))
        assert reader.get("big.bin").data == data

        # the lie was detected and attributed, not silently tolerated
        snap = reader.obs.snapshot()
        corrupt = snap.counter_by("cyrus_corrupt_shares_total", "csp")
        assert corrupt.get("csp0", 0) >= 1
        assert set(corrupt) == {"csp0"}  # honest providers unblamed
        events = snap.counter_by("cyrus_health_events_total", "kind")
        assert events.get("corrupt_share", 0) >= 1

    def test_repeat_offender_is_quarantined(self, tmp_path, fault_seed):
        reader, data = _reader_world(tmp_path, fault_seed, ("csp0",))
        seen: list = []
        reader.health.subscribe(seen.append)
        assert reader.get("big.bin").data == data
        assert reader.health.corruption_count("csp0") >= 3
        assert any(e.kind == "quarantined" and e.csp_id == "csp0"
                   for e in seen)
        assert not reader.health.is_live("csp0")

    def test_corrupt_shares_open_debts_against_the_liar(self, tmp_path,
                                                        fault_seed):
        reader, data = _reader_world(tmp_path, fault_seed, ("csp0",))
        assert reader.get("big.bin").data == data
        debts = reader.debt_ledger.open_debts()
        assert debts, "decode-time detection must record debt"
        for entry in debts:
            assert entry.failed_csps == ("csp0",)

    def test_parallel_read_is_bit_identical_to_serial(self, tmp_path,
                                                      fault_seed):
        serial, data = _reader_world(tmp_path / "s", fault_seed, ("csp0",),
                                     parallelism=1)
        parallel, _ = _reader_world(tmp_path / "p", fault_seed, ("csp0",),
                                    parallelism=4)
        got_serial = serial.get("big.bin").data
        got_parallel = parallel.get("big.bin").data
        assert got_serial == got_parallel == data
        # both worlds blame the same (and only the same) provider
        for client in (serial, parallel):
            blamed = client.obs.snapshot().counter_by(
                "cyrus_corrupt_shares_total", "csp",
            )
            assert set(blamed) == {"csp0"}
