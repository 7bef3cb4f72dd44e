"""Unit tests for the consistent hash ring."""

import collections

import pytest

from repro.errors import SelectionError
from repro.hashring import ConsistentHashRing


def ring_with(*ids, replicas=64):
    ring = ConsistentHashRing(replicas=replicas)
    for csp in ids:
        ring.add(csp)
    return ring


class TestMembership:
    def test_add_and_contains(self):
        ring = ring_with("a", "b")
        assert "a" in ring and "b" in ring and "c" not in ring
        assert len(ring) == 2

    def test_duplicate_add_rejected(self):
        ring = ring_with("a")
        with pytest.raises(ValueError):
            ring.add("a")

    def test_remove(self):
        ring = ring_with("a", "b")
        ring.remove("a")
        assert "a" not in ring
        assert ring.members == ["b"]

    def test_remove_unknown(self):
        with pytest.raises(KeyError):
            ring_with("a").remove("zzz")

    def test_bad_weight(self):
        ring = ConsistentHashRing()
        with pytest.raises(ValueError):
            ring.add("a", weight=0)

    def test_bad_replicas(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(replicas=0)


class TestLookup:
    def test_successors_distinct(self):
        ring = ring_with("a", "b", "c", "d")
        chosen = ring.successors("chunk-1", 3)
        assert len(set(chosen)) == 3

    def test_deterministic(self):
        ring = ring_with("a", "b", "c")
        assert ring.successors("k", 2) == ring.successors("k", 2)

    def test_all_members_when_count_equals_size(self):
        ring = ring_with("a", "b", "c")
        assert sorted(ring.successors("key", 3)) == ["a", "b", "c"]

    def test_too_many_requested(self):
        ring = ring_with("a", "b")
        with pytest.raises(SelectionError):
            ring.successors("k", 3)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ring_with("a").successors("k", 0)

    def test_owner_is_first_successor(self):
        ring = ring_with("a", "b", "c")
        assert ring.owner("key") == ring.successors("key", 2)[0]


class TestBalance:
    def test_load_roughly_uniform(self):
        ring = ring_with("a", "b", "c", "d", "e")
        counts = collections.Counter(
            ring.owner(f"chunk-{i}") for i in range(5000)
        )
        assert min(counts.values()) > 0.4 * max(counts.values())

    def test_weight_biases_load(self):
        ring = ConsistentHashRing(replicas=64)
        ring.add("heavy", weight=3)
        ring.add("light", weight=1)
        counts = collections.Counter(
            ring.owner(f"k{i}") for i in range(4000)
        )
        assert counts["heavy"] > 1.8 * counts["light"]


class TestMinimalRemapping:
    def test_add_moves_bounded_fraction(self):
        ring = ring_with("a", "b", "c", "d")
        before = {f"k{i}": ring.owner(f"k{i}") for i in range(3000)}
        ring.add("e")
        moved = sum(1 for k, v in before.items() if ring.owner(k) != v)
        # ideal is 1/5 = 20%; allow generous slack for hash variance
        assert moved / 3000 < 0.35

    def test_remove_only_moves_removed_keys(self):
        ring = ring_with("a", "b", "c", "d")
        before = {f"k{i}": ring.owner(f"k{i}") for i in range(3000)}
        ring.remove("d")
        for key, owner in before.items():
            if owner != "d":
                assert ring.owner(key) == owner

    def test_readding_restores_ownership(self):
        ring = ring_with("a", "b", "c")
        before = {f"k{i}": ring.owner(f"k{i}") for i in range(500)}
        ring.remove("b")
        ring.add("b")
        after = {k: ring.owner(k) for k in before}
        assert before == after


class TestVirtualPointCache:
    """A CSP's virtual-node positions are computed once per process and
    shared by every ring; placement must not depend on the cache."""

    def test_cold_and_warm_rings_place_alike(self):
        import random

        from repro.hashring import ring as ring_module

        ids = [f"csp{i}" for i in range(6)]
        ring_module._virtual_points.cache_clear()
        cold = ring_with(*ids)
        cold.add("heavy", weight=3)
        assert ring_module._virtual_points.cache_info().hits == 0
        warm = ring_with(*ids)
        warm.add("heavy", weight=3)
        assert ring_module._virtual_points.cache_info().hits == 7
        expected = sorted(
            (ring_module._ring_hash(f"{csp}#{i}"), csp)
            for csp, count in [*((c, 64) for c in ids), ("heavy", 192)]
            for i in range(count)
        )
        assert list(zip(warm._points, warm._owners)) == expected
        rng = random.Random(2015)
        for _ in range(10_000):
            key = f"{rng.getrandbits(160):040x}"
            count = rng.randint(1, 7)
            assert cold.successors(key, count) == warm.successors(key, count)
