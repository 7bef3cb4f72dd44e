"""Unit tests for the oracle's GF(2^8) matrix algebra
(:mod:`repro.gf.scalar`): the product, the inverse and the Vandermonde
rows the codec's dispersal matrix is built from."""

import random

import pytest

from repro.gf import scalar as gfscalar


def random_matrix(rng, rows, cols):
    return [[rng.randrange(256) for _ in range(cols)] for _ in range(rows)]


def eye(k):
    return [[int(r == c) for c in range(k)] for r in range(k)]


def mat_mul(a, b):
    """``a @ b`` through the oracle's row product."""
    return [list(row) for row in gfscalar.matmul_rows(a, [bytes(r) for r in b])]


class TestMatMul:
    def test_identity(self):
        m = random_matrix(random.Random(0), 4, 4)
        assert mat_mul(m, eye(4)) == m
        assert mat_mul(eye(4), m) == m

    def test_matches_scalar_definition(self):
        rng = random.Random(1)
        a = random_matrix(rng, 3, 5)
        b = random_matrix(rng, 5, 2)
        got = mat_mul(a, b)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(5):
                    acc ^= gfscalar.mul(a[i][k], b[k][j])
                assert got[i][j] == acc

    def test_zero_matrix(self):
        z = [[0] * 3 for _ in range(3)]
        m = [[7] * 3 for _ in range(3)]
        assert mat_mul(z, m) == z


class TestInverse:
    def test_inverse_roundtrip(self):
        v = gfscalar.vandermonde_rows(range(1, 5), 4)
        inv = gfscalar.mat_inv(v)
        assert mat_mul(inv, v) == eye(4)
        assert mat_mul(v, inv) == eye(4)

    def test_singular_raises(self):
        with pytest.raises(ValueError, match="singular"):
            gfscalar.mat_inv([[1, 2], [1, 2]])

    def test_zero_matrix_singular(self):
        with pytest.raises(ValueError, match="singular"):
            gfscalar.mat_inv([[0] * 3 for _ in range(3)])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            gfscalar.mat_inv([[0, 0, 0], [0, 0, 0]])

    def test_identity_self_inverse(self):
        assert gfscalar.mat_inv(eye(5)) == eye(5)

    def test_requires_pivot_swap(self):
        # leading zero forces a row swap inside elimination
        m = [[0, 1], [1, 0]]
        assert mat_mul(gfscalar.mat_inv(m), m) == eye(2)


class TestVandermonde:
    def test_shape_and_first_column(self):
        v = gfscalar.vandermonde_rows([1, 2, 3], 4)
        assert [len(row) for row in v] == [4, 4, 4]
        assert [row[0] for row in v] == [1, 1, 1]

    def test_second_column_is_points(self):
        pts = [5, 9, 200]
        assert [row[1] for row in gfscalar.vandermonde_rows(pts, 3)] == pts

    def test_every_square_submatrix_invertible(self):
        # the MDS property that makes RS erasure decoding always work
        import itertools

        v = gfscalar.vandermonde_rows(range(1, 8), 3)
        for rows in itertools.combinations(v, 3):
            gfscalar.mat_inv(rows)  # must not raise

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            gfscalar.vandermonde_rows([1, 1, 2], 2)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            gfscalar.vandermonde_rows([0, 1], 2)
