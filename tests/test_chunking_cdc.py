"""Unit tests for the content-defined chunker, beside the paper's
Rabin fingerprint as an oracle for the cut rules."""

import hashlib
import json
import os
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from repro.chunking import ContentDefinedChunker, FixedSizeChunker, RabinFingerprint
from repro.chunking.cdc import select_boundaries
from repro.errors import ChunkingError

DATA = Path(__file__).parent / "data"
PARAMS = dict(min_size=64, avg_size=256, max_size=1024, window=16)


class RabinOracle(ContentDefinedChunker):
    """The paper's GF(2) Rabin fingerprint, byte at a time, with every
    candidate run through :func:`select_boundaries`.  It hashes
    differently from the chunker, so it cuts elsewhere, by the same
    rules; ``golden_cuts.json`` pins its cuts too."""

    def boundaries(self, data, known=()) -> list[int]:
        rabin, mask, w = RabinFingerprint(window=self.window), self._mask, self.window
        candidates = [
            i + 1 for i, byte in enumerate(bytes(data))
            if (rabin.push(byte) & mask) == mask and i >= w - 1
        ]
        return select_boundaries(candidates, len(data), self.min_size,
                                 self.max_size)


@pytest.fixture(params=["vectorized", "reference"])
def chunker(request):
    kind = ContentDefinedChunker if request.param == "vectorized" else RabinOracle
    return kind(**PARAMS)


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

    def test_bad_window(self):
        with pytest.raises(ChunkingError):
            ContentDefinedChunker(window=1)

    def test_avg_cap(self):
        with pytest.raises(ChunkingError):
            ContentDefinedChunker(min_size=1, avg_size=1 << 25, max_size=1 << 26)


class TestVectorizedEngine:
    def test_golden_cuts_pinned(self):
        """Chunk identity is storage format: the cut points of a seeded
        buffer, recorded before the scan was re-blocked, must not move."""
        golden = _golden()
        data = random.Random(0xC075).randbytes(1 << 20)
        assert hashlib.sha1(data).hexdigest() == golden["buffer_sha1"]
        default = ContentDefinedChunker(**_default_sizes())
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
        """The only table is the 1 KiB byte table: nothing scales with
        the block or the input, so a chunker costs kilobytes."""
        import numpy as np

        from repro.chunking import cdc

        np.random.default_rng(0)  # numpy.random imports lazily
        cdc._byte_table.cache_clear()
        tracemalloc.start()
        try:
            ContentDefinedChunker(**_default_sizes())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, peak


def _default_sizes() -> dict:
    from repro.core.config import CyrusConfig

    cfg = CyrusConfig(key="k")
    return dict(min_size=cfg.chunk_min, avg_size=cfg.chunk_avg,
                max_size=cfg.chunk_max)


def _golden() -> dict:
    return json.loads((DATA / "golden_cuts.json").read_text())


class TestSkipPaths:
    """Cut lists recorded under the full-candidate scan, for the paths
    the min-size skip adds (``tests/data/golden_cuts.json``)."""

    @pytest.fixture(scope="class")
    def buffer(self):
        return random.Random(0xC075).randbytes(1 << 20)

    @pytest.mark.parametrize("engine", [
        "vectorized",
        # the oracle reads 5.6 MB byte by byte (~5 s)
        pytest.param("rabin", marks=pytest.mark.slow),
    ])
    def test_forced_cut_then_skip(self, engine):
        case = _golden()["zero_run"]
        data = (random.Random(0xC075).randbytes(1 << 20) + bytes(3505208)
                + random.Random(0xC076).randbytes(1 << 20))
        assert hashlib.sha1(data).hexdigest() == case["buffer_sha1"]
        if engine == "vectorized":
            chunker, key = ContentDefinedChunker(**_default_sizes()), "cuts"
        else:
            chunker, key = RabinOracle(**_default_sizes()), "rabin_cuts"
        assert chunker.boundaries(data) == case[key]

    def test_gap_longer_than_a_block(self, buffer):
        from repro.chunking import cdc

        case = _golden()["long_gap"]
        sizes = {k: case[k] for k in ("min_size", "avg_size", "max_size")}
        cuts = ContentDefinedChunker(**sizes).boundaries(buffer)
        assert cuts == case["cuts"]
        gaps = [b - a - sizes["min_size"] for a, b in zip([0] + cuts, cuts)]
        assert sizes["min_size"] < cdc._BLOCK < max(gaps)

    def test_files_of_chunk_min_and_one_more_byte(self, buffer):
        case = _golden()["min_edge"]
        chunker = ContentDefinedChunker(**_default_sizes())
        m, o = chunker.min_size, case["offset"]
        assert chunker.boundaries(buffer[:m]) == case["prefix_min"]
        assert chunker.boundaries(buffer[: m + 1]) == case["prefix_min_plus_one"]
        assert chunker.boundaries(buffer[o : o + m]) == case["at_offset_min"]
        # a candidate exactly chunk_min into the file is kept
        assert (chunker.boundaries(buffer[o : o + m + 1])
                == case["at_offset_min_plus_one"] == [m, m + 1])

    def test_rabin_engine_on_the_golden_buffer(self, buffer):
        """The oracle pins the ``rabin_*`` cuts of ``golden_cuts.json``."""
        golden = _golden()
        rabin = RabinOracle(**_default_sizes())
        assert rabin.boundaries(buffer) == golden["rabin_default_config_cuts"]
        fine = golden["rabin_fine"]
        cuts = RabinOracle(
            min_size=256, avg_size=1024, max_size=8192
        ).boundaries(buffer)
        assert len(cuts) == fine["count"]
        assert (hashlib.sha1(json.dumps(cuts).encode()).hexdigest()
                == fine["cuts_json_sha1"])


class TestScanBudget:
    """Bytes the default chunker hashes, pinned in ``op_budget.json``."""

    budget = json.loads((DATA / "op_budget.json").read_text())[
        "chunker_scanned_bytes"
    ]

    @staticmethod
    def scanned(data, known=()) -> int:
        chunker = ContentDefinedChunker(**_default_sizes())
        window_hits, hit_at = chunker._window_hits, chunker._hit_at
        total = 0

        def counting(buf):
            nonlocal total
            total += buf.size
            return window_hits(buf)

        def counting_one(data, end):
            nonlocal total
            total += chunker.window
            return hit_at(data, end)

        chunker._window_hits, chunker._hit_at = counting, counting_one
        chunker.boundaries(data, known)
        return total

    @staticmethod
    def resave() -> tuple[bytes, bytes]:
        """A seeded 8 MiB document and its re-save after an insert, a
        delete and an overwrite of at most 4 KiB each."""
        rng = random.Random(28)
        doc = rng.randbytes(8 << 20)
        out = bytearray(doc)
        for kind in ("insert", "delete", "overwrite"):
            pos, length = rng.randrange(len(out)), rng.randint(1, 4096)
            if kind == "insert":
                out[pos:pos] = rng.randbytes(length)
            elif kind == "delete":
                del out[pos:pos + length]
            else:
                out[pos:pos + length] = rng.randbytes(length)
        return doc, bytes(out)

    def test_nothing_hashed_up_to_chunk_min(self):
        m = _default_sizes()["min_size"]
        for size in (0, 1, 17, m - 1, m):
            data = random.Random(size).randbytes(size)
            assert self.scanned(data) == self.budget["input_at_most_chunk_min"]

    def test_golden_buffer_exact(self):
        data = random.Random(0xC075).randbytes(1 << 20)
        assert self.scanned(data) == self.budget["golden_cuts_buffer"]

    def test_large_buffer_skips(self):
        data = random.Random(8).randbytes(8 << 20)
        assert self.scanned(data) <= self.budget["seeded_8mib_max_share"] * len(data)

    def test_resave_hashes_what_the_edits_touched(self):
        doc, edited = self.resave()
        chunker = ContentDefinedChunker(**_default_sizes())
        known = [c.to_bytes() for c in chunker.chunk_bytes(doc)]
        assert chunker.boundaries(edited, known) == chunker.boundaries(edited)
        assert (self.scanned(edited, ()) == self.scanned(edited)
                == self.budget["resave_8mib_empty_cache"])
        assert self.scanned(edited, known) == self.budget["resave_8mib_cached"]


class TestKnownSpans:
    """``known`` places cuts; what the chunk ids are, it cannot change."""

    chunker = ContentDefinedChunker(min_size=16, avg_size=16, max_size=4096,
                                    window=16)

    def _last_chunk(self, accept):
        """(last chunk, doc, doc + 100 bytes) for the first seeded
        200-byte doc whose last chunk is longer than min_size and that
        ``accept(doc, edited)`` takes."""
        for seed in range(2000):
            rng = random.Random(seed)
            doc = rng.randbytes(200)
            start = ([0] + self.chunker.boundaries(doc))[-2]
            edited = doc + rng.randbytes(100)
            if len(doc) - start > self.chunker.min_size and accept(doc, edited):
                return doc[start:], doc, edited
        pytest.fail("no seed fits")

    def test_the_scan_resumes_right_past_a_known_chunk(self):
        """A known last chunk, now followed by a candidate one byte past
        its end: the cut lands there, though no slice hashed it yet."""
        from unittest import mock

        from repro.chunking import cdc

        span, doc, edited = self._last_chunk(
            lambda doc, edited: len(doc) + 1 in self.chunker.boundaries(edited))
        with mock.patch.object(cdc, "_BLOCK", 8):
            assert (self.chunker.boundaries(edited, [span])
                    == self.chunker.boundaries(edited))

    def test_a_known_chunk_reaching_eof_on_a_candidate(self):
        span, doc, _ = self._last_chunk(
            lambda doc, _edited: self.chunker._hit_at(doc, len(doc)))
        assert self.chunker.boundaries(doc, [span]) == self.chunker.boundaries(doc)

    @pytest.mark.parametrize("seed", range(20))
    def test_spans_it_did_not_cut_move_cuts_never_ids(self, seed):
        rng = random.Random(seed)
        chunker = ContentDefinedChunker(min_size=16, avg_size=32, max_size=128)
        doc = rng.randbytes(rng.randint(2_000, 20_000))
        cuts = chunker.boundaries(doc)
        # the data: doc with one byte of its second chunk flipped, so
        # that chunk, flipped, is repeated by the data but never cut
        data = bytearray(doc)
        data[rng.randrange(cuts[0], cuts[1])] ^= 1 << rng.randrange(8)
        data = bytes(data)
        known = [data[cuts[0] : cuts[1]]]
        # random blobs, and blobs the data repeats from an old cut: of
        # any length, and one byte past max_size
        known += [rng.randbytes(rng.randint(1, 256)) for _ in range(5)]
        for c in [0] + cuts[:-1]:
            known += [data[c : c + rng.randint(1, 2 * chunker.max_size)],
                      data[c : c + chunker.max_size + 1]]
        # the chunks of another config
        other = ContentDefinedChunker(min_size=16, avg_size=64, max_size=512)
        known += [c.to_bytes() for c in other.chunk_bytes(data)]
        chunks = chunker.chunk_bytes(data, known)
        assert b"".join(c.data for c in chunks) == data
        assert [c.offset for c in chunks] == [0] + [
            c.offset + c.size for c in chunks[:-1]]
        assert all(c.id == hashlib.sha1(c.data).hexdigest() for c in chunks)
        assert all(chunker.min_size <= c.size <= chunker.max_size
                   for c in chunks[:-1])
        assert chunks[-1].size <= chunker.max_size
        assert [c.offset + c.size for c in chunks] != chunker.boundaries(data)


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
