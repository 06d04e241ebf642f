"""Tests for the RS↔MSR intermediary-parity transformation (§III-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion import FusionTransformer
from repro.gf import apply_to_blocks, is_invertible, matmul


@pytest.fixture(scope="module")
def tr63():
    return FusionTransformer(k=6, r=3)


@pytest.fixture(scope="module")
def tr83():
    return FusionTransformer(k=8, r=3)


def make_stripe(rng, tr, blocks=2):
    L = tr.subpacketization * blocks
    data = rng.integers(0, 256, (tr.k, L), dtype=np.uint8)
    coded = tr.rs.encode(data)
    return data, coded[tr.k :]


class TestConstruction:
    def test_group_count_and_padding(self, tr63, tr83):
        assert (tr63.q, tr63.padding) == (2, 0)
        assert (tr83.q, tr83.padding) == (3, 1)  # the paper's RS(8,3) empty node

    def test_group_blocks_are_invertible(self, tr83):
        for b in tr83.group_blocks:
            assert is_invertible(b)

    def test_group_blocks_tile_the_rs_parity_matrix(self, tr63):
        tiled = np.concatenate(tr63.group_blocks, axis=1)
        assert np.array_equal(tiled[:, : tr63.k], tr63.rs.parity_matrix)

    def test_trans1_trans2_are_mutual_inverses(self, tr63):
        l = tr63.subpacketization
        eye = np.eye(tr63.r * l, dtype=np.uint8)
        for t1, t2 in zip(tr63.trans1, tr63.trans2):
            assert np.array_equal(matmul(t1, t2), eye)
            assert np.array_equal(matmul(t2, t1), eye)


class TestIntermediaryParities:
    def test_eq3_sum_equals_rs_parity(self, tr63):
        """p = p'_1 ⊕ … ⊕ p'_q (eq. (3))."""
        rng = np.random.default_rng(0)
        data, parity = make_stripe(rng, tr63)
        inter = tr63.intermediary_parities(data)
        merged = inter[0] ^ inter[1]
        assert np.array_equal(merged, parity)

    def test_eq3_with_padding(self, tr83):
        rng = np.random.default_rng(1)
        data, parity = make_stripe(rng, tr83)
        inter = tr83.intermediary_parities(data)
        merged = np.bitwise_xor.reduce(inter, axis=0)
        assert np.array_equal(merged, parity)

    def test_eq4_each_group_recoverable(self, tr63):
        """d_i = B_i^{-1} p'_i (eq. (4))."""
        rng = np.random.default_rng(2)
        data, _ = make_stripe(rng, tr63)
        inter = tr63.intermediary_parities(data)
        for i in range(tr63.q):
            rec = apply_to_blocks(tr63._group_blocks_inv[i], inter[i])
            assert np.array_equal(rec, data[i * 3 : (i + 1) * 3])

    def test_wrong_data_shape_rejected(self, tr63):
        with pytest.raises(ValueError):
            tr63.intermediary_parities(np.zeros((5, 9), dtype=np.uint8))


#: once silently stored as 44 and 1
WIDE = [
    pytest.param(np.int64(300), id="int64"),
    pytest.param(np.float64(1.7), id="float64"),
]


class TestSymbolsWiderThanAByte:
    """Every transformer entry taking caller bytes refuses a wider dtype
    with the codecs' error instead of wrapping it to uint8."""

    @pytest.mark.parametrize("value", WIDE)
    def test_intermediary_parities(self, tr63, value):
        with pytest.raises(ValueError, match="wider than GF"):
            tr63.intermediary_parities(np.full((6, 9), value))

    @pytest.mark.parametrize("value", WIDE)
    def test_encode(self, tr63, value):
        with pytest.raises(ValueError, match="wider than GF"):
            tr63.encode(np.full((6, 9), value), "rs")

    @pytest.mark.parametrize("value", WIDE)
    def test_rs_to_msr(self, tr63, value):
        data, parity = make_stripe(np.random.default_rng(11), tr63)
        with pytest.raises(ValueError, match="wider than GF"):
            tr63.rs_to_msr(np.full(data.shape, value), parity)
        with pytest.raises(ValueError, match="wider than GF"):
            tr63.rs_to_msr(data, parity.astype(type(value)))

    @pytest.mark.parametrize("value", WIDE)
    def test_msr_to_rs(self, tr63, value):
        data, parity = make_stripe(np.random.default_rng(12), tr63)
        msr_parities = tr63.rs_to_msr(data, parity).parity
        with pytest.raises(ValueError, match="wider than GF"):
            tr63.msr_to_rs([p.astype(type(value)) for p in msr_parities])

    def test_a_byte_wide_dtype_is_still_taken_as_symbols(self, tr63):
        data, _ = make_stripe(np.random.default_rng(13), tr63)
        signed = tr63.intermediary_parities(data.view(np.int8))
        assert np.array_equal(signed, tr63.intermediary_parities(data))


class TestRsToMsr:
    def test_groups_are_valid_msr_codewords(self, tr63):
        rng = np.random.default_rng(3)
        data, parity = make_stripe(rng, tr63)
        out = tr63.rs_to_msr(data, parity)
        assert len(out.groups) == 2
        for i, g in enumerate(out.groups):
            assert np.array_equal(g[:3], data[i * 3 : (i + 1) * 3])
            assert np.array_equal(tr63.msr.encode(g[:3]), g)

    def test_padded_last_group_valid(self, tr83):
        rng = np.random.default_rng(4)
        data, parity = make_stripe(rng, tr83)
        out = tr83.rs_to_msr(data, parity)
        last = out.groups[-1]
        # real blocks 6,7 plus one virtual zero block
        assert np.array_equal(last[0], data[6])
        assert np.array_equal(last[1], data[7])
        assert not last[2].any()
        assert np.array_equal(tr83.msr.encode(last[:3]), last)

    def test_last_group_data_never_read(self, tr63):
        """Fig. 12(b): only q−1 data groups are read."""
        rng = np.random.default_rng(5)
        data, parity = make_stripe(rng, tr63)
        out = tr63.rs_to_msr(data, parity)
        assert out.cost.data_blocks_read == (tr63.q - 1) * tr63.r
        assert out.cost.parity_blocks_read == tr63.r

    def test_rejects_bad_parity_shape(self, tr63):
        rng = np.random.default_rng(6)
        data, parity = make_stripe(rng, tr63)
        with pytest.raises(ValueError):
            tr63.rs_to_msr(data, parity[:2])

    def test_rejects_bad_block_length(self, tr63):
        data = np.zeros((6, 10), dtype=np.uint8)  # 10 % 9 != 0
        parity = np.zeros((3, 10), dtype=np.uint8)
        with pytest.raises(ValueError):
            tr63.rs_to_msr(data, parity)


    def test_fault_free_cost_is_one_read_only_constant(self, tr63):
        data, parity = make_stripe(np.random.default_rng(14), tr63)
        cost = tr63.rs_to_msr(data, parity).cost
        assert tr63.rs_to_msr(data, parity).cost is cost
        with pytest.raises(AttributeError):
            cost += cost
        with pytest.raises(AttributeError):
            cost.gf_ops = 0.0
        assert cost.data_blocks_read == (tr63.q - 1) * tr63.r


class TestMsrToRs:
    def test_reads_parities_only(self, tr63):
        """Fig. 12(a): MSR→RS touches no data blocks."""
        rng = np.random.default_rng(7)
        data, parity = make_stripe(rng, tr63)
        fwd = tr63.rs_to_msr(data, parity)
        back = tr63.msr_to_rs([g[3:] for g in fwd.groups])
        assert np.array_equal(back.parity, parity)
        assert back.cost.data_blocks_read == 0
        assert back.cost.parity_blocks_read == tr63.q * tr63.r

    def test_roundtrip_with_padding(self, tr83):
        rng = np.random.default_rng(8)
        data, parity = make_stripe(rng, tr83)
        fwd = tr83.rs_to_msr(data, parity)
        back = tr83.msr_to_rs([g[3:] for g in fwd.groups])
        assert np.array_equal(back.parity, parity)

    def test_wrong_group_count_rejected(self, tr63):
        with pytest.raises(ValueError):
            tr63.msr_to_rs([np.zeros((3, 9), dtype=np.uint8)])

    def test_wrong_parity_shape_rejected(self, tr63):
        groups = [np.zeros((2, 9), dtype=np.uint8) for _ in range(2)]
        with pytest.raises(ValueError):
            tr63.msr_to_rs(groups)


class TestEndToEndSemantics:
    def test_msr_groups_survive_failures_after_conversion(self, tr63):
        """The converted stripe must actually be repairable the MSR way."""
        rng = np.random.default_rng(9)
        data, parity = make_stripe(rng, tr63)
        out = tr63.rs_to_msr(data, parity)
        g0 = out.groups[0]
        res = tr63.msr.repair(1, {i: g0[i] for i in range(6) if i != 1})
        assert np.array_equal(res.block, g0[1])
        assert res.total_bytes_read < tr63.msr.k * g0.shape[1]

    def test_verify_roundtrip_helper(self, tr63):
        assert tr63.verify_roundtrip(np.random.default_rng(10))


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kr=st.sampled_from([(4, 2), (6, 2), (6, 3)]),
)
def test_prop_roundtrip_random(seed, kr):
    k, r = kr
    tr = FusionTransformer(k=k, r=r)
    assert tr.verify_roundtrip(np.random.default_rng(seed))
