"""Unified property suite: every code must satisfy the ErasureCode contract.

One parametrized battery over all five code families catches contract
drift that per-code test files could miss — systematic layout, linearity,
decodability up to the declared fault tolerance, repair correctness, and
agreement between the repair *plan* (``repair_read_fractions``) and the
bytes an actual repair reads.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import (
    FractionalRepetitionCode,
    HitchhikerCode,
    LocalReconstructionCode,
    MSRCode,
    ReedSolomonCode,
    UnrecoverableError,
)


def all_codes():
    return [
        ReedSolomonCode(6, 3),
        ReedSolomonCode(4, 2),
        MSRCode(4, 2),
        MSRCode(6, 3),
        LocalReconstructionCode(6, 2, 2),
        LocalReconstructionCode(8, 2, 2, layout="interleaved"),
        HitchhikerCode(6, 3),
        FractionalRepetitionCode(4, 5),
        FractionalRepetitionCode(2, 3, rho=2),
    ]


CODES = all_codes()
CODE_IDS = [c.name for c in CODES]


def make_data(code, rng, blocks=2):
    L = code.subpacketization * blocks
    return rng.integers(0, 256, (code.k, L), dtype=np.uint8)


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
class TestContract:
    def test_systematic(self, code):
        rng = np.random.default_rng(1)
        data = make_data(code, rng)
        coded = code.encode(data)
        assert coded.shape == (code.n, data.shape[1])
        assert np.array_equal(coded[: code.k], data)

    def test_linearity(self, code):
        rng = np.random.default_rng(2)
        a, b = make_data(code, rng), make_data(code, rng)
        assert np.array_equal(code.encode(a ^ b), code.encode(a) ^ code.encode(b))

    def test_zero_maps_to_zero(self, code):
        data = np.zeros((code.k, code.subpacketization), dtype=np.uint8)
        assert not code.encode(data).any()

    def test_all_tolerance_patterns_decodable(self, code):
        rng = np.random.default_rng(3)
        data = make_data(code, rng, blocks=1)
        coded = code.encode(data)
        t = code.fault_tolerance
        for erased in itertools.combinations(range(code.n), t):
            shards = {i: coded[i] for i in range(code.n) if i not in erased}
            assert np.array_equal(code.decode(shards), coded), erased

    def test_repair_matches_codeword(self, code):
        rng = np.random.default_rng(4)
        coded = code.encode(make_data(code, rng))
        for failed in range(code.n):
            shards = {i: coded[i] for i in range(code.n) if i != failed}
            res = code.repair(failed, shards)
            assert np.array_equal(res.block, coded[failed]), failed

    def test_repair_plan_agrees_with_actual_reads(self, code):
        """bytes read per helper == plan fraction × block length."""
        rng = np.random.default_rng(5)
        coded = code.encode(make_data(code, rng))
        L = coded.shape[1]
        for failed in (0, code.n - 1):
            plan = code.repair_read_fractions(failed)
            shards = {i: coded[i] for i in range(code.n) if i != failed}
            res = code.repair(failed, shards)
            assert set(res.bytes_read) == set(plan), failed
            for helper, fraction in plan.items():
                assert res.bytes_read[helper] == pytest.approx(fraction * L), (
                    failed,
                    helper,
                )

    def test_storage_overhead_consistent(self, code):
        assert code.storage_overhead == pytest.approx(code.n / code.k)

    def test_too_many_erasures_raise(self, code):
        rng = np.random.default_rng(6)
        coded = code.encode(make_data(code, rng, blocks=1))
        # keep fewer than the minimum information-bearing set
        keep = list(range(code.n))[: max(1, code.k - code.n + code.k)]
        keep = keep[: code.k - 1] if code.k > 1 else []
        shards = {i: coded[i] for i in keep[: max(0, code.k - code.r - 1)] or keep[:1]}
        if len(shards) * code.subpacketization >= code.k * code.subpacketization:
            pytest.skip("cannot construct an undecodable pattern for this shape")
        with pytest.raises(UnrecoverableError):
            code.decode(shards)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    idx=st.integers(min_value=0, max_value=len(CODES) - 1),
)
def test_prop_random_single_failure_roundtrip(seed, idx):
    code = CODES[idx]
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (code.k, code.subpacketization), dtype=np.uint8)
    coded = code.encode(data)
    failed = int(rng.integers(code.n))
    res = code.repair(failed, {i: coded[i] for i in range(code.n) if i != failed})
    assert np.array_equal(res.block, coded[failed])
