"""Property-based tests: GF(2^8) field axioms and the invertibility the
decoder rests on, on the pure-Python oracle (hypothesis)."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.gf import scalar as gfscalar

mul, inv = gfscalar.mul, gfscalar.inv

elem = st.integers(0, 255)
nonzero = st.integers(1, 255)


def add(a: int, b: int) -> int:
    """Field addition as the oracle does it: ``combine`` with unit
    coefficients over one-byte rows."""
    return gfscalar.combine([1, 1], [bytes([a]), bytes([b])])[0]


def mat_mul(a, b):
    return [list(row) for row in gfscalar.matmul_rows(a, [bytes(r) for r in b])]


def eye(k):
    return [[int(r == c) for c in range(k)] for r in range(k)]


@given(a=elem, b=elem)
def test_addition_commutes(a, b):
    assert add(a, b) == add(b, a)


@given(a=elem, b=elem, c=elem)
def test_addition_associates(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(a=elem, b=elem)
def test_multiplication_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(a=elem, b=elem, c=elem)
def test_multiplication_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(a=elem, b=elem, c=elem)
def test_distributivity(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(a=nonzero, b=nonzero)
def test_division_inverts_multiplication(a, b):
    # a / b is a * b^-1
    assert mul(mul(a, b), inv(b)) == a
    assert mul(mul(a, inv(b)), b) == a


@given(a=nonzero)
def test_inverse_is_two_sided(a):
    assert mul(a, inv(a)) == 1
    assert mul(inv(a), a) == 1


@given(
    points=st.lists(nonzero, min_size=3, max_size=8, unique=True),
    width=st.integers(2, 3),
)
@settings(max_examples=60, deadline=None)
def test_vandermonde_square_submatrices_invertible(points, width):
    """Any ``width`` rows of a Vandermonde matrix over distinct non-zero
    points invert: what lets any t shares decode."""
    rows = gfscalar.vandermonde_rows(points, width)
    for square in itertools.combinations(rows, width):
        assert mat_mul(gfscalar.mat_inv(square), square) == eye(width)


@given(
    seed=st.integers(0, 2**31),
    size=st.integers(2, 5),
)
@settings(max_examples=50, deadline=None)
def test_matrix_inverse_roundtrip_when_invertible(seed, size):
    rng = random.Random(seed)
    matrix = [[rng.randrange(256) for _ in range(size)] for _ in range(size)]
    try:
        inverse = gfscalar.mat_inv(matrix)
    except ValueError:
        return  # singular draw; nothing to check
    assert mat_mul(inverse, matrix) == eye(size)
    assert mat_mul(matrix, inverse) == eye(size)
