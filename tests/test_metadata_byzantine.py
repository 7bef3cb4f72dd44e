"""Byzantine- and outage-tolerant metadata plane (robustness PR).

The metadata plane gets the same adversary model the data plane already
has: providers that lie (persistently corrupted ``md-*`` objects), that
forge (self-consistent envelopes around wrong share bytes), that serve
stale slots left by an interrupted publish, or that are simply down.
These tests cover the whole stack:

* the authenticated v2 share envelope and its legacy v1 fallback,
* :class:`MetadataStore`'s verified quorum fetch — all m slots probed,
  corrupt shares attributed to their CSP, the freshest verified publish
  generation preferred, damage recorded as ``meta`` repair debts,
* degraded/failed publishes naming their failed providers,
* the end-to-end client matrix (liars x outage, within the m - t
  budget) on a serial and a parallelism-4 engine — which must agree
  bit for bit because both feed the same :class:`NodeAssembler`,
* ``meta`` debt re-dispersal through :func:`run_repair`, including a
  crash mid-repair rolled forward by recovery, and
* the scrub's metadata census + verify pass.
"""

from __future__ import annotations

import pytest

from repro.core.client import CyrusClient
from repro.core.config import CyrusConfig
from repro.core.transfer import DirectEngine
from repro.csp import HealthRegistry
from repro.csp.memory import InMemoryCSP
from repro.errors import InsufficientSharesError, MetadataError
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultyProvider
from repro.faults.plan import SimulatedCrash
from repro.metadata.codec import (
    FRAME_MAGIC,
    encode_node,
    metadata_share_name,
    pack_meta_share,
    unpack_meta_share,
)
from repro.metadata.node import ROOT_ID, MetadataNode
from repro.metadata.store import (
    META_CORRUPT_SHARES,
    META_DEBTS_RECORDED,
    META_PUBLISH_FAILURES,
    MetadataStore,
)
from repro.obs import MetricsRegistry
from repro.recovery import IntentJournal
from repro.redundancy import DebtLedger, run_repair
from repro.util.clock import SimClock
from repro.util.hashing import sha1_hex

from tests.conftest import SMALL_CHUNKS, deterministic_bytes

CONFIG = dict(key="meta-byz-key", t=2, n=3, **SMALL_CHUNKS)


def _node(modified: float = 1.0, name: str = "report.txt") -> MetadataNode:
    """A minimal node.  ``modified`` is *not* part of the node id, so
    two calls with different stamps model an interrupted re-publish:
    same object names, disagreeing slot contents."""
    return MetadataNode(
        file_id=sha1_hex(b"content"), prev_id=ROOT_ID, client_id="alice",
        name=name, deleted=False, modified=modified, size=7,
    )


def _store_world(tmp_path, providers=None, m=3, t=2):
    """A fully-wired standalone store: health, metrics, ledger, clock."""
    clock = SimClock()
    if providers is None:
        providers = [InMemoryCSP(f"csp{i}") for i in range(m)]
    health = HealthRegistry(clock=clock)
    metrics = MetricsRegistry()
    ledger = DebtLedger(tmp_path / "meta-debts.jsonl", fsync=False)
    store = MetadataStore(providers, key="meta-byz-key", t=t,
                          health=health, metrics=metrics, ledger=ledger,
                          clock=clock)
    return store, providers, health, metrics, ledger


def _rot(provider, name: str) -> None:
    """Flip one payload byte of a stored object in place."""
    blob = bytearray(provider.download(name))
    blob[-1] ^= 0x01
    provider.upload(name, bytes(blob))


class TestEnvelope:
    """The authenticated v2 frame and its legacy v1 fallback."""

    def test_v2_roundtrip(self):
        digest = sha1_hex(b"the node plaintext")
        blob = pack_meta_share(b"share-bytes", 77, digest, stamp=12345)
        frame = unpack_meta_share(blob)
        assert frame.authenticated
        assert frame.payload == b"share-bytes"
        assert frame.chunk_size == 77
        assert frame.stamp == 12345
        assert frame.share_digest == sha1_hex(b"share-bytes")
        assert frame.node_digest == digest
        assert frame.payload_intact()

    def test_tampered_payload_fails_its_own_digest(self):
        blob = bytearray(
            pack_meta_share(b"share-bytes", 77, sha1_hex(b"node")),
        )
        blob[-1] ^= 0xFF
        frame = unpack_meta_share(bytes(blob))
        assert frame.authenticated
        assert not frame.payload_intact()

    def test_legacy_v1_parses_unauthenticated(self):
        # the pre-envelope framing: bare chunk-size header + payload
        blob = (512).to_bytes(8, "big") + b"legacy-payload"
        frame = unpack_meta_share(blob)
        assert not frame.authenticated
        assert frame.share_digest is None
        assert frame.payload == b"legacy-payload"
        assert frame.chunk_size == 512
        assert frame.payload_intact()  # nothing to check against

    def test_store_legacy_pack_is_v1(self, tmp_path):
        store, _providers, _h, _m, _l = _store_world(tmp_path)
        _provider, _name, share = store.shares_for(_node())[0]
        frame = unpack_meta_share(MetadataStore._pack(share))
        assert not frame.authenticated
        assert frame.payload == share.data
        assert frame.chunk_size == share.chunk_size

    def test_garbage_and_truncation_rejected(self):
        with pytest.raises(MetadataError):
            unpack_meta_share(b"short")
        with pytest.raises(MetadataError):
            unpack_meta_share(FRAME_MAGIC + b"\x00" * 8)  # truncated v2

    def test_frame_versions_cannot_collide(self, tmp_path):
        # a v1 frame of any real node opens with zero bytes (the 8-byte
        # big-endian chunk size), never with the v2 magic
        store, _providers, _h, _m, _l = _store_world(tmp_path)
        _provider, _name, share = store.shares_for(_node())[0]
        assert MetadataStore._pack(share)[:4] != FRAME_MAGIC


class TestVerifiedFetch:
    """Store-level quorum fetch against lying, stale and dead slots."""

    def test_corrupt_slot_survived_and_attributed(self, tmp_path):
        store, providers, health, metrics, ledger = _store_world(tmp_path)
        node = _node()
        store.publish(node)
        _rot(providers[0], metadata_share_name(node.node_id, 0))

        got = store.fetch(node.node_id)
        assert encode_node(got) == encode_node(node)
        # the liar was attributed, the honest slots were not
        assert health.corruption_count("csp0") == 1
        assert health.corruption_count("csp1") == 0
        snap = metrics.snapshot()
        assert snap.counter_total(META_CORRUPT_SHARES, csp="csp0") == 1
        # the damaged slot is now a durable repair obligation
        entry = ledger.debt_for(node.node_id, kind="meta")
        assert entry is not None
        assert 0 in entry.missing
        assert "csp0" in entry.failed_csps

    def test_missing_slot_records_debt_without_blame(self, tmp_path):
        store, providers, health, metrics, ledger = _store_world(tmp_path)
        node = _node()
        store.publish(node)
        providers[1].delete(metadata_share_name(node.node_id, 1))

        got = store.fetch(node.node_id)
        assert encode_node(got) == encode_node(node)
        entry = ledger.debt_for(node.node_id, kind="meta")
        assert entry is not None and 1 in entry.missing
        # a hole is damage, not a lie: nobody gets a corruption strike
        assert all(health.corruption_count(f"csp{i}") == 0 for i in range(3))
        assert metrics.snapshot().counter_total(META_CORRUPT_SHARES) == 0

    def test_forged_envelope_is_attributed(self, tmp_path):
        # a Byzantine slot that wraps wrong share bytes in a *valid*
        # envelope claiming the winning node digest — the last lie the
        # per-share digest alone cannot catch
        store, providers, health, _metrics, _ledger = _store_world(tmp_path)
        node = _node()
        store.publish(node)
        name0 = metadata_share_name(node.node_id, 0)
        honest = unpack_meta_share(providers[0].download(name0))
        forged = pack_meta_share(
            b"\x5a" * len(honest.payload), honest.chunk_size,
            sha1_hex(encode_node(node)), stamp=honest.stamp,
        )
        providers[0].upload(name0, forged)

        got = store.fetch(node.node_id)
        assert encode_node(got) == encode_node(node)
        assert health.corruption_count("csp0") == 1

    def test_interrupted_publish_prefers_latest_stamp(self, tmp_path):
        # modified is not part of the node id: v1 and v2 share slot
        # names, so a re-publish that died after 2 of 3 slots leaves
        # the third serving the old version under the same name
        store, providers, health, _metrics, ledger = _store_world(tmp_path)
        v1, v2 = _node(modified=1.0), _node(modified=2.0)
        assert v1.node_id == v2.node_id
        store.publish(v1, stamp=1000)
        for provider, name, blob, index in store.frames_for(v2, stamp=2000):
            if index < 2:
                provider.upload(name, blob)

        got = store.fetch(v1.node_id)
        assert got.modified == 2.0  # the freshest verified generation
        # the left-behind slot is stale — re-dispersal, not quarantine
        assert health.corruption_count("csp2") == 0
        entry = ledger.debt_for(v1.node_id, kind="meta")
        assert entry is not None and 2 in entry.missing

    def test_stopping_at_first_t_slots_would_have_lied(self, tmp_path):
        # the regression the all-m probe exists for: slots 0 and 1 are
        # stale, only slot 2 carries the fresh generation
        store, providers, _health, _metrics, _ledger = _store_world(tmp_path)
        v1, v2 = _node(modified=1.0), _node(modified=2.0)
        store.publish(v1, stamp=1000)
        frames = store.frames_for(v2, stamp=2000)
        # fresher generation reaches a t-quorum, but not the first slots
        for provider, name, blob, index in frames:
            if index >= 1:
                provider.upload(name, blob)
        assert store.fetch(v1.node_id).modified == 2.0

    def test_too_much_rot_raises_insufficient_shares(self, tmp_path):
        store, providers, _health, _metrics, _ledger = _store_world(tmp_path)
        node = _node()
        store.publish(node)
        for index in (0, 1):  # m - t + 1 = 2 bad slots: beyond the budget
            _rot(providers[index], metadata_share_name(node.node_id, index))
        with pytest.raises(InsufficientSharesError):
            store.fetch(node.node_id)


class TestPublishFailures:
    """Satellite: failed publishes name their failed providers."""

    def _flaky_world(self, tmp_path, dead_ids):
        clock = SimClock()
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.OUTAGE, csp_ids=tuple(dead_ids),
                       ops=("upload",))],
            seed=1,
        )
        inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
        wrapped = [FaultyProvider(p, plan, clock=clock) for p in inner]
        return _store_world(tmp_path, providers=wrapped)

    def test_failed_publish_names_the_dead_providers(self, tmp_path):
        store, _providers, _h, metrics, _ledger = self._flaky_world(
            tmp_path, ("csp1", "csp2"),
        )
        with pytest.raises(MetadataError) as excinfo:
            store.publish(_node())
        message = str(excinfo.value)
        assert "csp1" in message and "csp2" in message
        by_csp = metrics.snapshot().counter_by(META_PUBLISH_FAILURES, "csp")
        assert by_csp == {"csp1": 1.0, "csp2": 1.0}

    def test_degraded_publish_records_meta_debt(self, tmp_path):
        store, _providers, _h, metrics, ledger = self._flaky_world(
            tmp_path, ("csp2",),
        )
        node = _node()
        store.publish(node)  # t = 2 of 3 landed: accepted but degraded
        entry = ledger.debt_for(node.node_id, kind="meta")
        assert entry is not None
        assert entry.missing == (2,)
        assert entry.failed_csps == ("csp2",)
        snap = metrics.snapshot()
        assert snap.counter_total(META_DEBTS_RECORDED) == 1
        assert snap.counter_by(META_PUBLISH_FAILURES, "csp") == {"csp2": 1.0}
        # the node is still reconstructible from the slots that landed
        assert encode_node(store.fetch(node.node_id)) == encode_node(node)


def _client_world(tmp_path, seed, liar_ids=(), outage_id=None,
                  parallelism=1, files=3):
    """A clean writer over four providers, then a fresh reader over the
    same stores wrapped in a :meth:`FaultPlan.metadata_byzantine` plan —
    only ``md-*`` reads are touched, isolating the metadata plane."""
    inner = [InMemoryCSP(f"csp{i}") for i in range(4)]
    writer = CyrusClient.create(
        inner, CyrusConfig(**CONFIG), client_id="writer",
    )
    payloads = {}
    for i in range(files):
        data = deterministic_bytes(3000 + 700 * i, seed=seed + i)
        writer.put(f"file-{i}.bin", data)
        payloads[f"file-{i}.bin"] = data

    plan = FaultPlan.metadata_byzantine(
        seed, liar_csp_ids=tuple(liar_ids), outage_csp_id=outage_id,
    )
    clock = SimClock()
    wrapped = [FaultyProvider(p, plan, clock=clock) for p in inner]
    providers = {p.csp_id: p for p in wrapped}
    engine = DirectEngine(providers, clock=clock, parallelism=parallelism)
    reader = CyrusClient.create(
        wrapped, CyrusConfig(**CONFIG), client_id="reader", engine=engine,
        debt_ledger=DebtLedger(tmp_path / f"debts-{parallelism}.jsonl",
                               fsync=False),
    )
    reader.sync()  # the first full sync runs the verified batch fetch
    return reader, writer, payloads


@pytest.mark.parametrize("parallelism", [1, 4], ids=["serial", "parallel"])
class TestByzantineClientMatrix:
    """End to end: liars x outage within the m - t budget, serial and
    pooled.  With four metadata slots and t = 2 the plane must absorb
    any two bad slots."""

    def test_one_liar(self, tmp_path, fault_seed, parallelism):
        reader, writer, payloads = _client_world(
            tmp_path, fault_seed, liar_ids=("csp0",), parallelism=parallelism,
        )
        assert set(reader.tree.node_ids()) == set(writer.tree.node_ids())
        for name, data in payloads.items():
            assert reader.get(name).data == data
        # one strike per lying node fetch -> quarantined during sync
        assert reader.health.corruption_count("csp0") >= 3
        assert not reader.health.is_live("csp0")
        for honest in ("csp1", "csp2", "csp3"):
            assert reader.health.corruption_count(honest) == 0

    def test_two_liars(self, tmp_path, fault_seed, parallelism):
        # two files keep each liar below the quarantine threshold: the
        # point here is that reads stay bit-exact *while* m - t = 2
        # metadata slots are actively lying, not the quarantine itself
        reader, writer, payloads = _client_world(
            tmp_path, fault_seed, liar_ids=("csp0", "csp1"),
            parallelism=parallelism, files=2,
        )
        assert set(reader.tree.node_ids()) == set(writer.tree.node_ids())
        for name, data in payloads.items():
            assert reader.get(name).data == data
        by_csp = reader.obs.snapshot().counter_by(META_CORRUPT_SHARES, "csp")
        assert by_csp.get("csp0", 0) >= 1
        assert by_csp.get("csp1", 0) >= 1
        assert set(by_csp) <= {"csp0", "csp1"}

    def test_liar_plus_outage(self, tmp_path, fault_seed, parallelism):
        reader, writer, payloads = _client_world(
            tmp_path, fault_seed, liar_ids=("csp0",), outage_id="csp3",
            parallelism=parallelism, files=2,
        )
        assert set(reader.tree.node_ids()) == set(writer.tree.node_ids())
        for name, data in payloads.items():
            assert reader.get(name).data == data
        by_csp = reader.obs.snapshot().counter_by(META_CORRUPT_SHARES, "csp")
        assert set(by_csp) == {"csp0"}

    def test_damage_becomes_meta_debts(self, tmp_path, fault_seed,
                                       parallelism):
        reader, _writer, _payloads = _client_world(
            tmp_path, fault_seed, liar_ids=("csp0",), parallelism=parallelism,
        )
        metas = [e for e in reader.debt_ledger.open_debts()
                 if e.kind == "meta"]
        assert {e.chunk_id for e in metas} == set(reader.tree.node_ids())
        assert all("csp0" in e.failed_csps for e in metas)

    def test_store_fetch_all_matches_the_writer(self, tmp_path, fault_seed,
                                                parallelism):
        reader, writer, _payloads = _client_world(
            tmp_path, fault_seed, liar_ids=("csp0",), outage_id="csp3",
            parallelism=parallelism,
        )
        assert reader.store.list_node_ids() == set(writer.tree.node_ids())
        fetched = {n.node_id: encode_node(n)
                   for n in reader.store.fetch_all()}
        truth = {nid: encode_node(writer.tree.get(nid))
                 for nid in writer.tree.node_ids()}
        assert fetched == truth


class TestBackendsAgree:
    """Serial and pooled readers feed the same assembler, so their whole
    observable outcome — bytes, node sets, blame — must be identical."""

    def test_bit_identical_under_byzantine_metadata(self, tmp_path,
                                                    fault_seed):
        worlds = {
            parallelism: _client_world(
                tmp_path, fault_seed, liar_ids=("csp0",), outage_id="csp3",
                parallelism=parallelism, files=2,
            )
            for parallelism in (1, 4)
        }
        (serial, _w1, payloads) = worlds[1]
        (parallel, _w2, _p2) = worlds[4]
        for name, data in payloads.items():
            assert serial.get(name).data == parallel.get(name).data == data
        assert set(serial.tree.node_ids()) == set(parallel.tree.node_ids())
        blame = [
            c.obs.snapshot().counter_by(META_CORRUPT_SHARES, "csp")
            for c in (serial, parallel)
        ]
        assert set(blame[0]) == set(blame[1]) == {"csp0"}
        meta_debts = [
            {e.chunk_id for e in c.debt_ledger.open_debts()
             if e.kind == "meta"}
            for c in (serial, parallel)
        ]
        assert meta_debts[0] == meta_debts[1]


#: Metadata uploads to csp2 fail while the clock is inside this window.
META_OUTAGE_WINDOW = (0.0, 10.0)


def _meta_outage_world(tmp_path, seed, extra_specs=()):
    """Three providers; csp2 rejects ``md-*`` uploads during the outage
    window, so a put lands all its chunk shares but only 2 of 3
    metadata slots — exactly one ``meta`` debt, no chunk debts."""
    clock = SimClock()
    specs = [FaultSpec(kind=FaultKind.OUTAGE, csp_ids=("csp2",),
                       ops=("upload",), name_prefix="md-",
                       window_time=META_OUTAGE_WINDOW)]
    specs.extend(extra_specs)
    plan = FaultPlan(specs, seed=seed)
    inner = [InMemoryCSP(f"csp{i}") for i in range(3)]
    wrapped = [FaultyProvider(p, plan, clock=clock) for p in inner]

    def make_client(client_id):
        engine = DirectEngine({p.csp_id: p for p in wrapped}, clock=clock)
        return CyrusClient.create(
            wrapped, CyrusConfig(**CONFIG), client_id=client_id,
            engine=engine,
            journal=IntentJournal(tmp_path / "journal.jsonl", clock=clock,
                                  fsync=False),
            debt_ledger=DebtLedger(tmp_path / "debts.jsonl", fsync=False),
        )

    client = make_client("alice")
    data = deterministic_bytes(2600, seed=seed)
    client.put("wounded.bin", data)
    return client, inner, clock, data, make_client


class TestMetaRepair:
    """``meta`` debts drain through run_repair once the fleet heals."""

    def test_degraded_publish_is_repaired(self, tmp_path, fault_seed):
        client, inner, clock, data, _make = _meta_outage_world(
            tmp_path, fault_seed,
        )
        metas = [e for e in client.debt_ledger.open_debts()
                 if e.kind == "meta"]
        assert len(metas) == 1
        node_id = metas[0].chunk_id
        name2 = metadata_share_name(node_id, 2)
        assert not inner[2].list(prefix=name2)

        clock.advance(100)  # past the outage window and the backoff
        report = run_repair(client)
        assert report.debts_retired >= 1
        assert not [e for e in client.debt_ledger.open_debts()
                    if e.kind == "meta"]
        # the missing slot landed, exactly once, under its fixed name
        for index, provider in enumerate(inner):
            names = [i.name for i in provider.list(prefix="md-")]
            assert names == [metadata_share_name(node_id, index)]
        assert client.get("wounded.bin").data == data
        assert run_repair(client).debts_seen == 0

    def test_crash_mid_repair_rolls_forward(self, tmp_path, fault_seed):
        # the repair PUT to csp2 is the kill point: the journaled
        # meta-repair intent must carry enough to finish the job
        crash = FaultSpec(kind=FaultKind.CRASH, csp_ids=("csp2",),
                          ops=("upload",), name_prefix="md-",
                          window_time=(50.0, 1e9), max_hits=1)
        client, inner, clock, data, make_client = _meta_outage_world(
            tmp_path, fault_seed, extra_specs=(crash,),
        )
        [entry] = [e for e in client.debt_ledger.open_debts()
                   if e.kind == "meta"]
        node_id = entry.chunk_id

        clock.advance(100)
        with pytest.raises(SimulatedCrash):
            run_repair(client)
        assert not inner[2].list(prefix=metadata_share_name(node_id, 2))

        # the next client generation replays the incomplete intent
        survivor = make_client("alice")
        recovery = survivor.run_recovery()
        assert recovery.meta_republished == 1
        assert inner[2].list(prefix=metadata_share_name(node_id, 2))
        # the still-open debt retires against the healed census, and the
        # roll-forward left no duplicate or stray metadata objects
        run_repair(survivor)
        assert not [e for e in survivor.debt_ledger.open_debts()
                    if e.kind == "meta"]
        for index, provider in enumerate(inner):
            names = [i.name for i in provider.list(prefix="md-")]
            assert names == [metadata_share_name(node_id, index)]
        assert survivor.get("wounded.bin").data == data


def _scrub_world(tmp_path, files=2):
    clock = SimClock()
    providers = [InMemoryCSP(f"csp{i}") for i in range(3)]
    engine = DirectEngine({p.csp_id: p for p in providers}, clock=clock)
    client = CyrusClient.create(
        providers, CyrusConfig(**CONFIG), client_id="alice", engine=engine,
        journal=IntentJournal(tmp_path / "journal.jsonl", clock=clock,
                              fsync=False),
        debt_ledger=DebtLedger(tmp_path / "debts.jsonl", fsync=False),
    )
    for i in range(files):
        client.put(f"file-{i}.bin", deterministic_bytes(2000 + 500 * i,
                                                        seed=40 + i))
    return client, providers, clock


class TestScrubMetadataPass:
    """Satellite: the scrub's metadata census + verify."""

    def test_clean_world_is_healthy(self, tmp_path):
        client, _providers, _clock = _scrub_world(tmp_path)
        report = client.scrub(repair=False)
        assert report.healthy
        assert report.meta_nodes_scanned == len(client.tree.node_ids())
        assert report.meta_shares_verified == 3 * report.meta_nodes_scanned
        assert report.meta_shares_missing == 0
        assert report.meta_shares_corrupt == 0

    def test_detects_missing_and_corrupt_then_repair_heals(self, tmp_path):
        client, providers, clock = _scrub_world(tmp_path)
        node_a, node_b = sorted(client.tree.node_ids())[:2]
        providers[1].delete(metadata_share_name(node_a, 1))
        _rot(providers[0], metadata_share_name(node_b, 0))

        report = client.scrub(repair=False)
        assert not report.healthy
        assert report.meta_shares_missing == 1
        assert report.meta_shares_corrupt == 1
        assert report.meta_debts_recorded == 2
        assert client.health.corruption_count("csp0") == 1
        snap = client.obs.snapshot()
        assert snap.counter_by(META_CORRUPT_SHARES, "csp") == {"csp0": 1.0}
        metas = {e.chunk_id for e in client.debt_ledger.open_debts()
                 if e.kind == "meta"}
        assert metas == {node_a, node_b}

        healed = run_repair(client)
        assert healed.debts_retired == 2
        clean = client.scrub(repair=False)
        assert clean.healthy
        assert clean.meta_shares_missing == 0
        assert clean.meta_shares_corrupt == 0

    def test_meta_budget_slices_and_cursor_resumes(self, tmp_path):
        client, _providers, _clock = _scrub_world(tmp_path, files=2)
        total = len(client.tree.node_ids())
        assert total >= 2
        # budget of one node's worth of probes per slice: the cursor
        # must walk the whole plane across slices, wrapping at the end
        first = client.scrub(budget_shares=3, repair=False)
        assert first.meta_nodes_scanned < total
        assert first.meta_cursor == first.meta_nodes_scanned
        second = client.scrub(budget_shares=3, repair=False,
                              meta_cursor=first.meta_cursor)
        assert second.meta_nodes_scanned >= 1
        scanned = first.meta_nodes_scanned + second.meta_nodes_scanned
        assert scanned <= total  # no node verified twice across the pair

    def test_scrub_metadata_can_be_disabled(self, tmp_path):
        client, providers, _clock = _scrub_world(tmp_path)
        node_a = sorted(client.tree.node_ids())[0]
        providers[1].delete(metadata_share_name(node_a, 1))
        report = client.scrub(repair=False, scrub_metadata=False)
        assert report.meta_nodes_scanned == 0
        assert report.meta_shares_missing == 0
        assert not [e for e in client.debt_ledger.open_debts()
                    if e.kind == "meta"]
