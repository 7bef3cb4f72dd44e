"""Unit tests for the content-defined chunker (both engines)."""

import hashlib
import json
import os
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from repro.chunking import ContentDefinedChunker, FixedSizeChunker
from repro.chunking.cdc import select_boundaries
from repro.errors import ChunkingError

PARAMS = dict(min_size=64, avg_size=256, max_size=1024, window=16)


@pytest.fixture(params=["vectorized", "reference"])
def chunker(request):
    return ContentDefinedChunker(engine=request.param, **PARAMS)


class TestBoundaries:
    def test_deterministic(self, chunker):
        data = os.urandom(20_000)
        assert chunker.boundaries(data) == chunker.boundaries(data)

    def test_reassembly(self, chunker):
        data = os.urandom(10_000)
        chunks = chunker.chunk_bytes(data)
        assert b"".join(c.data for c in chunks) == data

    def test_offsets_contiguous(self, chunker):
        data = os.urandom(8_000)
        chunks = chunker.chunk_bytes(data)
        pos = 0
        for c in chunks:
            assert c.offset == pos
            pos += c.size
        assert pos == len(data)

    def test_size_bounds(self, chunker):
        data = os.urandom(50_000)
        chunks = chunker.chunk_bytes(data)
        for c in chunks[:-1]:
            assert PARAMS["min_size"] <= c.size <= PARAMS["max_size"]
        assert chunks[-1].size <= PARAMS["max_size"]

    def test_average_near_target(self):
        cdc = ContentDefinedChunker(**PARAMS)
        data = os.urandom(200_000)
        sizes = [c.size for c in cdc.chunk_bytes(data)]
        avg = sum(sizes) / len(sizes)
        # min-size filtering skews the mean upward; just sanity-band it
        assert PARAMS["avg_size"] * 0.5 < avg < PARAMS["avg_size"] * 3

    def test_empty_input(self, chunker):
        assert chunker.boundaries(b"") == []
        assert chunker.chunk_bytes(b"") == []

    def test_tiny_input_single_chunk(self, chunker):
        chunks = chunker.chunk_bytes(b"tiny")
        assert len(chunks) == 1
        assert chunks[0].data == b"tiny"

    def test_constant_data_forced_cuts(self, chunker):
        # constant bytes rarely hit the boundary criterion; max_size
        # must force cuts regardless
        data = b"\x00" * 10_000
        chunks = chunker.chunk_bytes(data)
        assert all(c.size <= PARAMS["max_size"] for c in chunks)
        assert b"".join(c.data for c in chunks) == data


class TestLocality:
    def test_edit_preserves_most_chunks(self, chunker):
        data = os.urandom(60_000)
        before = {c.id for c in chunker.chunk_bytes(data)}
        edited = data[:100] + b"INSERTED" + data[100:]
        after = {c.id for c in chunker.chunk_bytes(edited)}
        assert len(before & after) / len(before) > 0.7

    def test_shift_invariance(self, chunker):
        # dropping a prefix only perturbs early cuts
        data = os.urandom(60_000)
        cuts = set(chunker.boundaries(data)[3:-1])
        shifted = {c + 997 for c in chunker.boundaries(data[997:])[3:-1]}
        if cuts:
            assert len(cuts & shifted) / len(cuts) > 0.7

    def test_fixed_size_has_no_locality(self):
        # the contrast that motivates CDC (ablation baseline)
        fixed = FixedSizeChunker(chunk_size=256)
        data = os.urandom(20_000)
        before = {c.id for c in fixed.chunk_bytes(data)}
        after = {c.id for c in fixed.chunk_bytes(b"X" + data)}
        assert len(before & after) <= 2


class TestSelectBoundaries:
    def test_respects_min(self):
        cuts = select_boundaries([10, 20, 200], 300, min_size=50, max_size=400)
        assert cuts == [200, 300]

    def test_forces_max(self):
        cuts = select_boundaries([], 1000, min_size=10, max_size=300)
        assert cuts == [300, 600, 900, 1000]

    def test_empty_input(self):
        assert select_boundaries([], 0, 10, 100) == []

    def test_final_cut_is_length(self):
        cuts = select_boundaries([64], 100, min_size=10, max_size=200)
        assert cuts[-1] == 100

    def test_candidate_at_length_ignored(self):
        cuts = select_boundaries([100], 100, min_size=10, max_size=200)
        assert cuts == [100]


class TestValidation:
    def test_avg_power_of_two(self):
        with pytest.raises(ChunkingError):
            ContentDefinedChunker(min_size=10, avg_size=100, max_size=1000)

    def test_ordering(self):
        with pytest.raises(ChunkingError):
            ContentDefinedChunker(min_size=1024, avg_size=256, max_size=2048)

    def test_bad_engine(self):
        with pytest.raises(ChunkingError):
            ContentDefinedChunker(engine="gpu")

    def test_bad_window(self):
        with pytest.raises(ChunkingError):
            ContentDefinedChunker(window=1)

    def test_avg_cap(self):
        with pytest.raises(ChunkingError):
            ContentDefinedChunker(min_size=1, avg_size=1 << 25, max_size=1 << 26)


class TestSeeds:
    def test_different_seed_different_cuts(self):
        data = os.urandom(50_000)
        a = ContentDefinedChunker(seed=1, **PARAMS).boundaries(data)
        b = ContentDefinedChunker(seed=2, **PARAMS).boundaries(data)
        assert a != b

    def test_same_seed_shared_across_instances(self):
        # clients of one cloud share the seed => identical chunking
        data = os.urandom(30_000)
        a = ContentDefinedChunker(seed=9, **PARAMS).boundaries(data)
        b = ContentDefinedChunker(seed=9, **PARAMS).boundaries(data)
        assert a == b


class TestVectorizedEngine:
    def test_golden_cuts_pinned(self):
        """Chunk identity is storage format: the cut points of a seeded
        buffer, recorded before the scan was re-blocked, must not move."""
        from repro.core.config import CyrusConfig

        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_cuts.json").read_text()
        )
        data = random.Random(0xC075).randbytes(1 << 20)
        assert hashlib.sha1(data).hexdigest() == golden["buffer_sha1"]
        cfg = CyrusConfig(key="k")
        default = ContentDefinedChunker(
            min_size=cfg.chunk_min, avg_size=cfg.chunk_avg,
            max_size=cfg.chunk_max, engine=cfg.chunker_engine,
            seed=cfg.chunker_seed,
        )
        assert default.boundaries(data) == golden["default_config_cuts"]
        fine = golden["fine"]
        cuts = ContentDefinedChunker(
            min_size=fine["min_size"], avg_size=fine["avg_size"],
            max_size=fine["max_size"],
        ).boundaries(data)
        assert len(cuts) == fine["count"]
        assert (
            hashlib.sha1(json.dumps(cuts).encode()).hexdigest()
            == fine["cuts_json_sha1"]
        )

    def test_one_chunker_shared_by_threads(self):
        """Scratch is per call, so concurrent puts may share a chunker."""
        chunker = ContentDefinedChunker(min_size=64, avg_size=256, max_size=4096)
        buffers = [random.Random(i).randbytes(300_000) for i in range(4)]
        serial = [chunker.boundaries(b) for b in buffers]
        got: list = [None] * len(buffers)

        def work(i):
            for _ in range(5):
                got[i] = chunker.boundaries(buffers[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == serial

    def test_construction_allocates_under_1mb(self):
        """The power tables are block-sized (2 x 128 KiB), not 2 x 32 MB."""
        from repro.chunking import cdc
        from repro.core.config import CyrusConfig

        cfg = CyrusConfig(key="k")
        cdc._power_series.cache_clear()
        cdc._byte_table.cache_clear()
        tracemalloc.start()
        try:
            chunker = ContentDefinedChunker(
                min_size=cfg.chunk_min, avg_size=cfg.chunk_avg,
                max_size=cfg.chunk_max, seed=cfg.chunker_seed,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunker.engine == "vectorized"
        assert peak < 1_000_000, peak


class TestFixedChunker:
    def test_sizes(self):
        fixed = FixedSizeChunker(chunk_size=100)
        chunks = fixed.chunk_bytes(b"z" * 250)
        assert [c.size for c in chunks] == [100, 100, 50]

    def test_empty(self):
        assert FixedSizeChunker().chunk_bytes(b"") == []

    def test_exact_multiple(self):
        chunks = FixedSizeChunker(chunk_size=50).chunk_bytes(b"y" * 100)
        assert [c.size for c in chunks] == [50, 50]

    def test_rejects_zero(self):
        with pytest.raises(ChunkingError):
            FixedSizeChunker(chunk_size=0)
