"""Unit + property tests for GF(2^8) matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import (
    GF,
    apply_to_blocks,
    cauchy,
    identity,
    inverse,
    is_invertible,
    mat_vec,
    matmul,
    rank,
    solve,
    systematic_rs_parity,
    vandermonde,
)


def random_matrix(rng, rows, cols):
    return rng.integers(0, 256, (rows, cols), dtype=np.uint8)


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        if is_invertible(m):
            return m


class TestMatmul:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 4, 4)
        assert np.array_equal(matmul(identity(4), m), m)
        assert np.array_equal(matmul(m, identity(4)), m)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (random_matrix(rng, 3, 3) for _ in range(3))
        assert np.array_equal(matmul(matmul(a, b), c), matmul(a, matmul(b, c)))

    def test_mat_vec_matches_matmul(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 5, 4)
        v = rng.integers(0, 256, 4, dtype=np.uint8)
        assert np.array_equal(mat_vec(m, v), matmul(m, v[:, None])[:, 0])

    def test_mat_vec_rejects_matrix(self):
        with pytest.raises(ValueError):
            mat_vec(identity(2), identity(2))


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_inverse_roundtrip(self, n):
        rng = np.random.default_rng(n)
        m = random_invertible(rng, n)
        mi = inverse(m)
        assert np.array_equal(matmul(m, mi), identity(n))
        assert np.array_equal(matmul(mi, m), identity(n))

    def test_singular_raises(self):
        m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            inverse(m)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            inverse(np.zeros((2, 3), dtype=np.uint8))

    def test_rank_of_singular(self):
        m = np.array([[1, 2, 3], [1, 2, 3], [0, 0, 1]], dtype=np.uint8)
        assert rank(m) == 2

    def test_rank_zero_matrix(self):
        assert rank(np.zeros((3, 3), dtype=np.uint8)) == 0


class TestSolve:
    def test_solve_vector(self):
        rng = np.random.default_rng(3)
        a = random_invertible(rng, 4)
        x = rng.integers(0, 256, 4, dtype=np.uint8)
        b = mat_vec(a, x)
        assert np.array_equal(solve(a, b), x)

    def test_solve_multiple_rhs(self):
        rng = np.random.default_rng(4)
        a = random_invertible(rng, 4)
        x = random_matrix(rng, 4, 6)
        b = matmul(a, x)
        assert np.array_equal(solve(a, b), x)

    def test_solve_singular_raises(self):
        a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            solve(a, np.array([1, 2], dtype=np.uint8))


class TestStructuredMatrices:
    def test_vandermonde_first_row_ones(self):
        v = vandermonde(4, 6)
        assert np.all(v[0] == 1)
        assert np.all(v[:, 0] == 1)

    @pytest.mark.parametrize("r,k", [(2, 4), (3, 6), (3, 8), (4, 10)])
    def test_cauchy_all_square_submatrices_invertible(self, r, k):
        """The MDS-enabling property: every square submatrix is nonsingular."""
        from itertools import combinations

        c = cauchy(r, k)
        for size in range(1, r + 1):
            for rows in combinations(range(r), size):
                for cols in combinations(range(k), size):
                    sub = c[np.ix_(rows, cols)]
                    assert is_invertible(sub), (rows, cols)

    def test_cauchy_too_large_raises(self):
        with pytest.raises(ValueError):
            cauchy(200, 200)

    def test_systematic_parity_shape(self):
        p = systematic_rs_parity(8, 3)
        assert p.shape == (3, 8)


class TestApplyToBlocks:
    def test_matches_matmul_columnwise(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 3, 5)
        blocks = rng.integers(0, 256, (5, 64), dtype=np.uint8)
        out = apply_to_blocks(m, blocks)
        ref = matmul(m, blocks)
        assert np.array_equal(out, ref)

    def test_identity_passthrough(self):
        rng = np.random.default_rng(6)
        blocks = rng.integers(0, 256, (4, 32), dtype=np.uint8)
        assert np.array_equal(apply_to_blocks(identity(4), blocks), blocks)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_to_blocks(identity(3), np.zeros((4, 8), dtype=np.uint8))

    @pytest.mark.parametrize(
        "blocks",
        [np.array([[300, 2]], dtype=np.int16), np.array([[1.7, 2.0]])],
        ids=["int16", "float"],
    )
    def test_wider_than_byte_input_is_refused(self, blocks):
        """A uint8 cast would turn 300 into 44 and 1.7 into 1."""
        with pytest.raises(ValueError, match=f"blocks dtype {blocks.dtype} is wider"):
            apply_to_blocks(np.array([[1]], dtype=np.uint8), blocks)

    def test_large_blocks(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 2, 3)
        blocks = rng.integers(0, 256, (3, 1 << 16), dtype=np.uint8)
        out = apply_to_blocks(m, blocks)
        # spot-check one byte column against scalar math
        gf = GF.get()
        col = 12345
        for i in range(2):
            expect = 0
            for j in range(3):
                expect ^= int(gf.mul(int(m[i, j]), int(blocks[j, col])))
            assert int(out[i, col]) == expect


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

dims = st.integers(min_value=1, max_value=5)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), dims)
def test_prop_inverse_of_inverse(seed, n):
    rng = np.random.default_rng(seed)
    m = random_invertible(rng, n)
    assert np.array_equal(inverse(inverse(m)), m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), dims, dims)
def test_prop_rank_bounded(seed, r, c):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, r, c)
    assert 0 <= rank(m) <= min(r, c)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), dims)
def test_prop_solve_consistency(seed, n):
    rng = np.random.default_rng(seed)
    a = random_invertible(rng, n)
    b = rng.integers(0, 256, n, dtype=np.uint8)
    x = solve(a, b)
    assert np.array_equal(mat_vec(a, x), b)
