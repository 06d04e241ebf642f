"""Unit + property tests for GF(2^8) element arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF, gf_add, gf_div, gf_inv, gf_mul, gf_pow
from repro.gf.tables import get_tables

elem8 = st.integers(min_value=0, max_value=255)
nonzero8 = st.integers(min_value=1, max_value=255)


class TestTables:
    def test_exp_log_roundtrip(self):
        t = get_tables()
        xs = np.arange(1, t.order)
        assert np.array_equal(t.exp[t.log[xs]], xs)

    def test_exp_cycle_duplicated(self):
        t = get_tables()
        assert np.array_equal(t.exp[: t.order - 1], t.exp[t.order - 1 : 2 * (t.order - 1)])

    def test_generator_order(self):
        # g = 2 is primitive: powers hit every nonzero element exactly once
        t = get_tables()
        assert len(set(int(x) for x in t.exp[: t.order - 1])) == t.order - 1


class TestScalarOps:
    def test_add_is_xor(self):
        assert int(gf_add(0b1010, 0b0110)) == 0b1100

    def test_mul_identity(self):
        for x in (0, 1, 7, 255):
            assert int(gf_mul(x, 1)) == x

    def test_mul_zero(self):
        assert int(gf_mul(0, 123)) == 0
        assert int(gf_mul(123, 0)) == 0

    def test_known_product_aes_poly(self):
        # 0x53 * 0xCA = 0x01 in the AES field... but we use 0x11D, so check
        # against a slow reference instead.
        def slow_mul(a, b):
            p = 0
            while b:
                if b & 1:
                    p ^= a
                a <<= 1
                if a & 0x100:
                    a ^= 0x11D
                b >>= 1
            return p

        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = int(rng.integers(256)), int(rng.integers(256))
            assert int(gf_mul(a, b)) == slow_mul(a, b)

    def test_div_inverse_of_mul(self):
        assert int(gf_div(gf_mul(77, 33), 33)) == 77

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_pow_zero_exponent(self):
        assert int(gf_pow(17, 0)) == 1
        assert int(gf_pow(0, 0)) == 1  # empty-product convention

    def test_pow_matches_repeated_mul(self):
        acc = 1
        for e in range(1, 10):
            acc = int(gf_mul(acc, 3))
            assert int(gf_pow(3, e)) == acc

    def test_negative_pow_is_inverse_pow(self):
        x = 19
        assert int(gf_pow(x, -1)) == int(gf_inv(x))
        assert int(gf_mul(gf_pow(x, -3), gf_pow(x, 3))) == 1

    def test_float_input_rejected(self):
        with pytest.raises(TypeError):
            gf_mul(1.5, 2)


class TestVectorized:
    def test_mul_broadcasts(self):
        a = np.arange(256, dtype=np.uint8)
        out = gf_mul(a, 2)
        assert out.shape == a.shape
        assert out.dtype == np.uint8

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, 500, dtype=np.uint8)
        b = rng.integers(0, 256, 500, dtype=np.uint8)
        vec = gf_mul(a, b)
        for i in range(0, 500, 37):
            assert int(vec[i]) == int(gf_mul(int(a[i]), int(b[i])))

    def test_scale_xor_into(self):
        gf = GF.get()
        rng = np.random.default_rng(2)
        vec = rng.integers(0, 256, 64, dtype=np.uint8)
        acc = np.zeros(64, dtype=np.uint8)
        gf.scale_xor_into(acc, 5, vec)
        assert np.array_equal(acc, gf_mul(5, vec))
        gf.scale_xor_into(acc, 5, vec)  # second application cancels
        assert not acc.any()

    def test_scale_xor_into_coeff_zero_one(self):
        gf = GF.get()
        vec = np.arange(16, dtype=np.uint8)
        acc = np.zeros(16, dtype=np.uint8)
        gf.scale_xor_into(acc, 0, vec)
        assert not acc.any()
        gf.scale_xor_into(acc, 1, vec)
        assert np.array_equal(acc, vec)


# ---------------------------------------------------------------------------
# Field axioms as properties (GF(256))
# ---------------------------------------------------------------------------


@given(elem8, elem8)
def test_prop_add_commutative(a, b):
    assert int(gf_add(a, b)) == int(gf_add(b, a))


@given(elem8, elem8)
def test_prop_mul_commutative(a, b):
    assert int(gf_mul(a, b)) == int(gf_mul(b, a))


@given(elem8, elem8, elem8)
def test_prop_mul_associative(a, b, c):
    assert int(gf_mul(gf_mul(a, b), c)) == int(gf_mul(a, gf_mul(b, c)))


@given(elem8, elem8, elem8)
def test_prop_distributive(a, b, c):
    lhs = gf_mul(a, gf_add(b, c))
    rhs = gf_add(gf_mul(a, b), gf_mul(a, c))
    assert int(lhs) == int(rhs)


@given(elem8)
def test_prop_additive_self_inverse(a):
    assert int(gf_add(a, a)) == 0


@given(nonzero8)
def test_prop_mul_inverse(a):
    assert int(gf_mul(a, gf_inv(a))) == 1


@given(nonzero8, nonzero8)
def test_prop_div_then_mul_roundtrip(a, b):
    assert int(gf_mul(gf_div(a, b), b)) == a


@settings(max_examples=30)
@given(nonzero8, st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_prop_pow_addition_law(a, e1, e2):
    assert int(gf_mul(gf_pow(a, e1), gf_pow(a, e2))) == int(gf_pow(a, e1 + e2))


class TestMulTable:
    def test_table_matches_logexp_for_all_pairs(self):
        gf = GF.get()
        a = np.repeat(np.arange(256, dtype=np.uint8), 256)
        b = np.tile(np.arange(256, dtype=np.uint8), 256)
        assert np.array_equal(gf.mul_table()[a, b], gf._mul_logexp(a, b))
