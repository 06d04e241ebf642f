"""Tests for the Hitchhiker-XOR piggybacked code."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import HitchhikerCode, ParameterError, ReedSolomonCode


def make_data(rng, k, L=16):
    return rng.integers(0, 256, (k, L), dtype=np.uint8)


class TestConstruction:
    def test_layout(self):
        hh = HitchhikerCode(6, 3)
        assert hh.n == 9
        assert hh.subpacketization == 2
        assert hh.fault_tolerance == 3
        assert hh.name == "Hitchhiker(6,3)"

    def test_groups_partition_data_nodes(self):
        hh = HitchhikerCode(8, 3)
        members = sorted(i for g in range(2) for i in hh.group_members(g))
        assert members == list(range(8))

    def test_r1_rejected(self):
        with pytest.raises(ParameterError):
            HitchhikerCode(4, 1)

    def test_too_few_data_nodes_rejected(self):
        with pytest.raises(ParameterError):
            HitchhikerCode(1, 4)

    def test_first_parity_is_plain_rs(self):
        """Parity 1 is untouched: matches RS on both substripes."""
        rng = np.random.default_rng(0)
        hh = HitchhikerCode(6, 3)
        rs = ReedSolomonCode(6, 3)
        data = make_data(rng, 6)
        coded = hh.encode(data)
        a, b = data[:, :8], data[:, 8:]
        assert np.array_equal(coded[6][:8], rs.encode(a)[6])
        assert np.array_equal(coded[6][8:], rs.encode(b)[6])

    def test_piggyback_contents(self):
        """Parity j>=2's b half = f_j(b) XOR group-(j-1) a symbols."""
        rng = np.random.default_rng(1)
        hh = HitchhikerCode(6, 3)
        rs = ReedSolomonCode(6, 3)
        data = make_data(rng, 6)
        coded = hh.encode(data)
        a, b = data[:, :8], data[:, 8:]
        for j in (1, 2):
            expect = rs.encode(b)[6 + j].copy()
            for i in hh.group_members(j - 1):
                expect ^= a[i]
            assert np.array_equal(coded[6 + j][8:], expect), j


class TestMDS:
    @pytest.mark.parametrize("k,r", [(4, 2), (6, 3)])
    def test_all_r_erasures_decodable(self, k, r):
        rng = np.random.default_rng(k)
        hh = HitchhikerCode(k, r)
        data = make_data(rng, k)
        coded = hh.encode(data)
        for erased in itertools.combinations(range(k + r), r):
            shards = {i: coded[i] for i in range(k + r) if i not in erased}
            assert np.array_equal(hh.decode(shards), coded), erased


class TestRepair:
    def test_data_repair_bandwidth_between_rs_and_msr(self):
        """k=8, r=3: Hitchhiker reads (8+4+1)/2 = 6.5 blocks... exactly
        (k + |S| + 1)/2 half-blocks worth, < k and > MSR's (n-1)/r."""
        rng = np.random.default_rng(2)
        hh = HitchhikerCode(8, 3)
        L = 16
        coded = hh.encode(make_data(rng, 8, L))
        res = hh.repair(0, {i: coded[i] for i in range(11) if i != 0})
        rs_bytes = 8 * L
        group = len(hh.group_members(hh._group_of[0]))
        expect = (7 - (group - 1)) * (L // 2) + (group - 1) * L + 2 * (L // 2)
        assert res.total_bytes_read == expect
        assert res.total_bytes_read < rs_bytes

    def test_repair_every_node(self):
        rng = np.random.default_rng(3)
        hh = HitchhikerCode(6, 3)
        coded = hh.encode(make_data(rng, 6))
        for f in range(9):
            res = hh.repair(f, {i: coded[i] for i in range(9) if i != f})
            assert np.array_equal(res.block, coded[f]), f

    def test_parity_repair_is_generic(self):
        rng = np.random.default_rng(4)
        hh = HitchhikerCode(6, 3)
        coded = hh.encode(make_data(rng, 6))
        res = hh.repair(7, {i: coded[i] for i in range(9) if i != 7})
        assert np.array_equal(res.block, coded[7])
        assert res.total_bytes_read == 6 * 16  # falls back to k full blocks

    def test_repair_plan_matches_reads(self):
        rng = np.random.default_rng(5)
        hh = HitchhikerCode(8, 3)
        L = 32
        coded = hh.encode(make_data(rng, 8, L))
        for f in (0, 3, 7):
            plan = hh.repair_read_fractions(f)
            res = hh.repair(f, {i: coded[i] for i in range(11) if i != f})
            assert set(res.bytes_read) == set(plan)
            for node, fraction in plan.items():
                assert res.bytes_read[node] == int(round(fraction * L))

    def test_missing_helper_falls_back(self):
        rng = np.random.default_rng(6)
        hh = HitchhikerCode(6, 3)
        coded = hh.encode(make_data(rng, 6))
        shards = {i: coded[i] for i in (1, 2, 3, 4, 5, 8)}  # parity 6,7 missing
        res = hh.repair(0, shards)
        assert np.array_equal(res.block, coded[0])

    def test_odd_block_length_rejected(self):
        hh = HitchhikerCode(4, 2)
        with pytest.raises(ValueError):
            hh.encode(np.zeros((4, 7), dtype=np.uint8))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_prop_roundtrip(seed):
    rng = np.random.default_rng(seed)
    hh = HitchhikerCode(6, 3)
    data = rng.integers(0, 256, (6, 8), dtype=np.uint8)
    coded = hh.encode(data)
    erased = sorted(rng.choice(9, size=3, replace=False))
    shards = {i: coded[i] for i in range(9) if i not in erased}
    assert np.array_equal(hh.decode(shards), coded)
