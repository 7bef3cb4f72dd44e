"""Unit tests for scalar GF(2^8) arithmetic: the numpy tables and the
pure-Python oracle's field operations."""

import pytest

from repro.gf import scalar as gfscalar
from repro.gf.tables import EXP_TABLE, GF_ORDER, LOG_TABLE

mul, inv = gfscalar.mul, gfscalar.inv


def add(*elements: int) -> int:
    """Field addition as the oracle does it: ``combine`` with all-one
    coefficients over one-byte rows."""
    return gfscalar.combine([1] * len(elements), [bytes([e]) for e in elements])[0]


class TestTables:
    def test_exp_table_doubled(self):
        assert (EXP_TABLE[:255] == EXP_TABLE[255:510]).all()

    def test_exp_covers_all_nonzero(self):
        assert sorted(set(EXP_TABLE[:255].tolist())) == list(range(1, 256))

    def test_log_exp_inverse(self):
        for a in range(1, 256):
            assert EXP_TABLE[LOG_TABLE[a]] == a


class TestAdd:
    def test_is_xor(self):
        assert add(0b1010, 0b0110) == 0b1100

    def test_self_inverse(self):
        for a in (0, 1, 77, 255):
            assert add(a, a) == 0

    def test_identity(self):
        assert add(123, 0) == 123


class TestMul:
    def test_zero_annihilates(self):
        assert mul(0, 200) == 0
        assert mul(200, 0) == 0

    def test_one_is_identity(self):
        for a in range(256):
            assert mul(a, 1) == a

    def test_commutative(self):
        for a, b in [(3, 7), (200, 99), (255, 255)]:
            assert mul(a, b) == mul(b, a)

    def test_associative_sample(self):
        for a, b, c in [(3, 7, 11), (100, 200, 50)]:
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_distributes_over_add(self):
        for a, b, c in [(5, 9, 17), (130, 66, 200)]:
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    def test_known_value(self):
        # 0x02 * 0x80 = 0x100 -> reduced by 0x11B = 0x1B
        assert mul(0x02, 0x80) == 0x1B


class TestDivInv:
    def test_div_inverts_mul(self):
        # a / b is a * b^-1
        for a, b in [(7, 13), (250, 3), (1, 255)]:
            assert mul(mul(a, b), inv(b)) == a

    def test_inverse_property(self):
        for a in range(1, 256):
            assert mul(a, inv(a)) == 1

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            inv(0)

    def test_zero_numerator(self):
        assert mul(0, inv(17)) == 0


class TestPow:
    def test_order_divides_255(self):
        # a^255 == 1 for all non-zero a (multiplicative group order 255)
        for a in range(1, 256):
            acc = 1
            for _ in range(255):
                acc = mul(acc, a)
            assert acc == 1

    def test_field_order_constant(self):
        assert GF_ORDER == 256
