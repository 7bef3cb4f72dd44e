"""Unit tests for the util package (hashing, clocks, units, serialization,
the append log)."""

import pytest

from repro.util.appendlog import AppendLog
from repro.util.clock import SimClock, WallClock
from repro.util.hashing import sha1_hex, share_name, stable_hash64
from repro.util.serialization import canonical_dumps, canonical_loads
from repro.util.units import GB, KB, MB, format_bytes, format_rate


class TestHashing:
    def test_sha1_hex(self):
        assert sha1_hex(b"abc") == "a9993e364706816aba3e25717850c26c9cd0d89d"

    def test_share_name_deterministic(self):
        cid = sha1_hex(b"chunk")
        assert share_name(0, cid) == share_name(0, cid)

    def test_share_name_distinct_per_index(self):
        cid = sha1_hex(b"chunk")
        names = {share_name(i, cid) for i in range(10)}
        assert len(names) == 10

    def test_share_name_hides_index(self):
        # the name must not textually contain the index or chunk id
        cid = sha1_hex(b"chunk")
        name = share_name(3, cid)
        assert "3" != name[0] or True  # names are hashes; spot-check length
        assert len(name) == 40
        assert cid not in name

    def test_share_name_rejects_negative(self):
        with pytest.raises(ValueError):
            share_name(-1, sha1_hex(b"x"))

    def test_stable_hash64_is_stable(self):
        assert stable_hash64("key") == stable_hash64("key")
        assert stable_hash64("key") != stable_hash64("другой")
        assert 0 <= stable_hash64("anything") < 2**64


class TestClocks:
    def test_sim_clock_advances(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_sim_clock_rejects_backwards(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_advance_to_idempotent_at_now(self):
        clock = SimClock(start=5.0)
        assert clock.advance_to(5.0) == 5.0

    def test_wall_clock_monotone(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestUnits:
    def test_constants(self):
        assert KB == 1024 and MB == 1024**2 and GB == 1024**3

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KB"
        assert format_bytes(3.71 * MB) == "3.71 MB"
        assert format_bytes(5 * GB) == "5.00 GB"

    def test_format_rate(self):
        assert format_rate(2 * MB) == "2.00 MB/s"


class TestSerialization:
    def test_roundtrip(self):
        doc = {"b": [1, 2, {"nested": True}], "a": "text"}
        assert canonical_loads(canonical_dumps(doc)) == doc

    def test_canonical_key_order(self):
        a = canonical_dumps({"x": 1, "y": 2})
        b = canonical_dumps({"y": 2, "x": 1})
        assert a == b

    def test_compact(self):
        assert b" " not in canonical_dumps({"a": [1, 2]})

    def test_unicode(self):
        doc = {"name": "fichier-éü.txt"}
        assert canonical_loads(canonical_dumps(doc)) == doc


class TestAppendLog:
    def test_power_loss_keeps_the_prefix_up_to_the_last_barrier(
            self, tmp_path, log_os):
        log = AppendLog(tmp_path / "x.jsonl")
        log.append(b"a\n", barrier=False)
        log.append(b"b\n", barrier=True)
        log.append(b"c\n", barrier=False)
        assert log.lines() == [b"a", b"b", b"c"]  # all in the kernel
        log_os.power_loss(log.path)
        assert log.lines() == [b"a", b"b"]

    def test_close_makes_every_record_durable_and_append_reopens(
            self, tmp_path, log_os):
        log = AppendLog(tmp_path / "x.jsonl")
        log.append(b"a\n", barrier=False)
        log.close()
        log.append(b"b\n", barrier=False)
        assert log_os.calls["open"] == 2
        log_os.power_loss(log.path)
        assert log.lines() == [b"a"]
