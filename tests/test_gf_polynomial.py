"""Tests for polynomial evaluation/interpolation over GF(2^8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from tests.gf_polynomial import (
    lagrange_interpolate,
    poly_add,
    poly_eval,
    poly_eval_many,
    poly_mul,
)


class TestEval:
    def test_constant(self):
        assert poly_eval(np.array([42], dtype=np.uint8), 17) == 42

    def test_linear(self):
        # p(x) = 3 + 2x at x=5 -> 3 XOR (2*5 = 10) = 9
        gf = GF.get()
        expect = int(gf.add(3, gf.mul(2, 5)))
        assert poly_eval(np.array([3, 2], dtype=np.uint8), 5) == expect

    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        coeffs = rng.integers(0, 256, 6, dtype=np.uint8)
        xs = rng.integers(0, 256, 20, dtype=np.uint8)
        many = poly_eval_many(coeffs, xs)
        for i, x in enumerate(xs):
            assert int(many[i]) == poly_eval(coeffs, int(x))


class TestAlgebra:
    def test_add_aligns_lengths(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        b = np.array([4, 5], dtype=np.uint8)
        out = poly_add(a, b)
        assert np.array_equal(out, np.array([5, 7, 3], dtype=np.uint8))

    def test_mul_degree(self):
        a = np.array([1, 1], dtype=np.uint8)
        out = poly_mul(a, a)
        # (1+x)^2 = 1 + x^2 in characteristic 2
        assert np.array_equal(out, np.array([1, 0, 1], dtype=np.uint8))

    def test_mul_eval_homomorphism(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, 4, dtype=np.uint8)
        b = rng.integers(0, 256, 3, dtype=np.uint8)
        gf = GF.get()
        for x in (0, 1, 2, 97):
            lhs = poly_eval(poly_mul(a, b), x)
            rhs = int(gf.mul(poly_eval(a, x), poly_eval(b, x)))
            assert lhs == rhs


class TestInterpolation:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        coeffs = rng.integers(0, 256, 5, dtype=np.uint8)
        xs = np.array([1, 2, 3, 4, 5], dtype=np.uint8)
        ys = poly_eval_many(coeffs, xs)
        rec = lagrange_interpolate(xs, ys)
        assert np.array_equal(rec[: len(coeffs)], coeffs)

    def test_duplicate_points_raise(self):
        xs = np.array([1, 1], dtype=np.uint8)
        ys = np.array([2, 3], dtype=np.uint8)
        with pytest.raises(ValueError):
            lagrange_interpolate(xs, ys)

    def test_interpolation_passes_through_points(self):
        xs = np.array([7, 30, 91, 200], dtype=np.uint8)
        ys = np.array([5, 0, 255, 17], dtype=np.uint8)
        poly = lagrange_interpolate(xs, ys)
        for x, y in zip(xs, ys):
            assert poly_eval(poly, int(x)) == int(y)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
)
def test_prop_interpolate_evaluates_back(seed, npts):
    rng = np.random.default_rng(seed)
    xs = rng.choice(256, size=npts, replace=False).astype(np.uint8)
    ys = rng.integers(0, 256, npts, dtype=np.uint8)
    poly = lagrange_interpolate(xs, ys)
    got = poly_eval_many(poly, xs)
    assert np.array_equal(got, ys)
