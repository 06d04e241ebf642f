"""Tests for the Reed–Solomon code."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import ParameterError, ReedSolomonCode, UnrecoverableError


def make_data(rng, k, L=64):
    return rng.integers(0, 256, (k, L), dtype=np.uint8)


class TestConstruction:
    def test_basic_properties(self):
        rs = ReedSolomonCode(8, 3)
        assert (rs.n, rs.k, rs.r) == (11, 8, 3)
        assert rs.subpacketization == 1
        assert rs.fault_tolerance == 3
        assert rs.storage_overhead == pytest.approx(11 / 8)
        assert rs.name == "RS(8,3)"

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            ReedSolomonCode(0, 3)
        with pytest.raises(ParameterError):
            ReedSolomonCode(4, 0)
        with pytest.raises(ParameterError):
            ReedSolomonCode(200, 100)  # exceeds GF(256)

    def test_parity_matrix_square_submatrices_invertible(self):
        from repro.gf import is_invertible

        rs = ReedSolomonCode(6, 3)
        p = rs.parity_matrix
        for cols in itertools.combinations(range(6), 3):
            assert is_invertible(p[:, cols])


class TestEncode:
    def test_systematic(self):
        rng = np.random.default_rng(0)
        rs = ReedSolomonCode(4, 2)
        data = make_data(rng, 4)
        coded = rs.encode(data)
        assert coded.shape == (6, 64)
        assert np.array_equal(coded[:4], data)

    def test_encode_is_linear(self):
        rng = np.random.default_rng(1)
        rs = ReedSolomonCode(4, 2)
        a, b = make_data(rng, 4), make_data(rng, 4)
        lhs = rs.encode(a ^ b)
        rhs = rs.encode(a) ^ rs.encode(b)
        assert np.array_equal(lhs, rhs)

    def test_zero_data_zero_parity(self):
        rs = ReedSolomonCode(5, 2)
        coded = rs.encode(np.zeros((5, 16), dtype=np.uint8))
        assert not coded.any()

    def test_wrong_shape_rejected(self):
        rs = ReedSolomonCode(4, 2)
        with pytest.raises(ValueError):
            rs.encode(np.zeros((3, 16), dtype=np.uint8))


class TestDecode:
    @pytest.mark.parametrize("k,r", [(2, 1), (4, 2), (6, 3), (8, 3)])
    def test_all_r_erasure_patterns(self, k, r):
        """MDS property: every erasure pattern of size r is decodable."""
        rng = np.random.default_rng(k * 10 + r)
        rs = ReedSolomonCode(k, r)
        data = make_data(rng, k, 32)
        coded = rs.encode(data)
        for erased in itertools.combinations(range(k + r), r):
            shards = {i: coded[i] for i in range(k + r) if i not in erased}
            assert np.array_equal(rs.decode(shards), coded), erased

    def test_too_many_erasures_raise(self):
        rng = np.random.default_rng(2)
        rs = ReedSolomonCode(4, 2)
        coded = rs.encode(make_data(rng, 4))
        shards = {i: coded[i] for i in range(3)}  # only 3 of 6 left
        with pytest.raises(UnrecoverableError):
            rs.decode(shards)

    def test_no_shards_raise(self):
        rs = ReedSolomonCode(4, 2)
        with pytest.raises(UnrecoverableError):
            rs.decode({})

    def test_decode_from_parities_only(self):
        """k = r: the parity set alone determines the data."""
        rng = np.random.default_rng(3)
        rs = ReedSolomonCode(3, 3)
        data = make_data(rng, 3)
        coded = rs.encode(data)
        shards = {i: coded[i] for i in range(3, 6)}
        assert np.array_equal(rs.decode(shards)[:3], data)

    def test_inconsistent_shard_lengths_rejected(self):
        rs = ReedSolomonCode(4, 2)
        with pytest.raises(ValueError):
            rs.decode({0: np.zeros(8, np.uint8), 1: np.zeros(16, np.uint8)})

    def test_out_of_range_shard_index_rejected(self):
        rs = ReedSolomonCode(4, 2)
        with pytest.raises(ValueError):
            rs.decode({9: np.zeros(8, np.uint8)})


class TestRepair:
    def test_repair_each_node(self):
        rng = np.random.default_rng(4)
        rs = ReedSolomonCode(6, 3)
        coded = rs.encode(make_data(rng, 6))
        for f in range(9):
            res = rs.repair(f, {i: coded[i] for i in range(9) if i != f})
            assert np.array_equal(res.block, coded[f])
            assert len(res.bytes_read) == 6  # reads exactly k helpers
            assert res.total_bytes_read == 6 * 64

    def test_repair_rejects_present_node(self):
        rng = np.random.default_rng(5)
        rs = ReedSolomonCode(4, 2)
        coded = rs.encode(make_data(rng, 4))
        with pytest.raises(ValueError):
            rs.repair(0, {i: coded[i] for i in range(6)})

    def test_repair_needs_k_survivors(self):
        rs = ReedSolomonCode(4, 2)
        coded = rs.encode(make_data(np.random.default_rng(6), 4))
        with pytest.raises(UnrecoverableError):
            rs.repair(0, {i: coded[i] for i in (1, 2, 5)})
        with pytest.raises(UnrecoverableError):
            rs.repair_batch(0, {i: coded[i][None] for i in (1, 2, 5)})

    def test_repair_read_fractions_plan(self):
        rs = ReedSolomonCode(8, 3)
        plan = rs.repair_read_fractions(0)
        assert len(plan) == 8
        assert all(v == 1.0 for v in plan.values())
        assert 0 not in plan


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 5, 64, 4097]),
)
def test_prop_one_row_repair_equals_decode(seed, k, r, L):
    """``lost = Σ cᵢ·shardᵢ`` over the k lowest survivors, for every failed
    node and every survivor set, is what the k×k decode would rebuild."""
    rng = np.random.default_rng(seed)
    rs = ReedSolomonCode(k, r)
    coded = rs.encode(make_data(rng, k, L))
    for failed in range(rs.n):
        others = [i for i in range(rs.n) if i != failed]
        extra = int(rng.integers(0, r))  # 0..r-1 further erasures
        survivors = sorted(rng.permutation(others)[: len(others) - extra].tolist())
        shards = {i: coded[i] for i in survivors}
        res = rs.repair(failed, shards)
        decoded = rs.encode(rs.decode_data({i: coded[i] for i in survivors[:k]}))
        assert np.array_equal(res.block, decoded[failed])
        assert np.array_equal(res.block, coded[failed])
        assert res.bytes_read == {i: L for i in survivors[:k]}
        assert all(np.array_equal(shards[i], coded[i]) for i in survivors)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
)
def test_prop_roundtrip_random_erasures(seed, k, r):
    rng = np.random.default_rng(seed)
    rs = ReedSolomonCode(k, r)
    data = rng.integers(0, 256, (k, 16), dtype=np.uint8)
    coded = rs.encode(data)
    erased = rng.choice(k + r, size=r, replace=False)
    shards = {i: coded[i] for i in range(k + r) if i not in erased}
    assert np.array_equal(rs.decode(shards), coded)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_prop_interpolation_oracle_agrees(seed):
    """RS parities are consistent: decode from any k, re-encode, compare."""
    rng = np.random.default_rng(seed)
    rs = ReedSolomonCode(5, 3)
    data = rng.integers(0, 256, (5, 8), dtype=np.uint8)
    coded = rs.encode(data)
    keep = sorted(rng.choice(8, size=5, replace=False))
    rec = rs.decode({i: coded[i] for i in keep})
    assert np.array_equal(rec, coded)


class TestDecodeData:
    def test_data_only_matches_full_decode(self):
        rng = np.random.default_rng(30)
        rs = ReedSolomonCode(6, 3)
        data = make_data(rng, 6)
        coded = rs.encode(data)
        shards = {i: coded[i] for i in range(9) if i not in (0, 4, 8)}
        assert np.array_equal(rs.decode_data(shards), data)
        assert np.array_equal(rs.decode(shards)[:6], data)

    def test_data_only_cheaper_than_full(self):
        """decode_data skips the re-encode (observable via timing on large
        blocks; here we just verify it doesn't touch encode)."""
        rng = np.random.default_rng(31)
        rs = ReedSolomonCode(6, 3)
        coded = rs.encode(make_data(rng, 6))
        shards = {i: coded[i] for i in range(6)}
        called = []
        original = rs.encode
        rs.encode = lambda d: called.append(1) or original(d)
        try:
            rs.decode_data(shards)
            assert not called
            rs.decode(shards)
            assert called
        finally:
            rs.encode = original
