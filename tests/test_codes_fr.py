"""Fractional-repetition code properties beyond the unified contract.

The unified suite (:mod:`tests.test_codes_unified`) already checks the
``ErasureCode`` contract; these tests pin what makes FR *FR* — uncoded
copy repair reading exactly γ bytes, ρ replicas per chunk on distinct
nodes, the systematic RS precode, and the greedy placement's balance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import FractionalRepetitionCode, ParameterError

SHAPES = [(4, 5, 2), (4, 4, 2), (2, 3, 2), (8, 9, 2), (2, 5, 3), (3, 4, 2)]


def make_code(k, r, rho):
    return FractionalRepetitionCode(k, r, rho=rho)


def make_data(code, rng, blocks=2):
    L = code.subpacketization * blocks
    return rng.integers(0, 256, (code.k, L), dtype=np.uint8)


@pytest.mark.parametrize("k,r,rho", SHAPES)
class TestFRStructure:
    def test_every_chunk_has_rho_replicas_on_distinct_nodes(self, k, r, rho):
        code = make_code(k, r, rho)
        for chunk, nodes in code.chunk_locations.items():
            assert len(nodes) == rho, chunk
            assert len(set(n for n, _ in nodes)) == rho, chunk

    def test_precode_shape(self, k, r, rho):
        """θ − B coded chunks from the systematic RS precode."""
        code = make_code(k, r, rho)
        assert code.num_chunks == code.n
        assert code.num_data_chunks == k * code.subpacketization
        assert code.num_chunks >= code.num_data_chunks

    def test_replica_nodes_balanced(self, k, r, rho):
        """Greedy placement keeps per-node chunk counts within one."""
        code = make_code(k, r, rho)
        per_node = {}
        for chunk, nodes in code.chunk_locations.items():
            for node, _plane in nodes:
                per_node[node] = per_node.get(node, 0) + 1
        replica_nodes = [c for n, c in per_node.items() if n >= k]
        if replica_nodes:
            assert max(replica_nodes) - min(replica_nodes) <= 1


@pytest.mark.parametrize("k,r,rho", SHAPES)
class TestUncodedRepair:
    def test_repair_reads_exactly_gamma(self, k, r, rho):
        """FR's defining property: repair is a copy of γ bytes, no GF ops."""
        code = make_code(k, r, rho)
        rng = np.random.default_rng(11)
        coded = code.encode(make_data(code, rng))
        L = coded.shape[1]
        for failed in range(code.n):
            shards = {i: coded[i] for i in range(code.n) if i != failed}
            res = code.repair(failed, shards)
            assert np.array_equal(res.block, coded[failed]), failed
            assert res.total_bytes_read == pytest.approx(L), failed

    def test_repair_falls_back_when_replicas_gone(self, k, r, rho):
        """Losing a chunk's whole replica set still repairs via decode."""
        code = make_code(k, r, rho)
        rng = np.random.default_rng(17)
        coded = code.encode(make_data(code, rng, blocks=1))
        failed = 0
        # kill the other replica holders of ONE chunk stored on node 0,
        # so that chunk has no surviving copy and repair must decode
        chunk = next(
            c
            for c, nodes in code.chunk_locations.items()
            if any(n == failed for n, _ in nodes)
        )
        helpers = {n for n, _ in code.chunk_locations[chunk]} - {failed}
        shards = {
            i: coded[i]
            for i in range(code.n)
            if i != failed and i not in helpers
        }
        try:
            res = code.repair(failed, shards)
        except Exception:
            pytest.skip("survivor pattern undecodable for this shape")
        assert np.array_equal(res.block, coded[failed])
        assert res.total_bytes_read > coded.shape[1]  # decode, not a copy


class TestParameters:
    def test_too_few_nodes_raises(self):
        with pytest.raises(ParameterError):
            FractionalRepetitionCode(4, 3, rho=2)  # n = 7 < ρk = 8

    def test_bad_rho_raises(self):
        with pytest.raises(ParameterError):
            FractionalRepetitionCode(4, 5, rho=1)

    def test_name_and_telemetry_key(self):
        code = FractionalRepetitionCode(4, 5)
        assert code.name == "FR(4,5,x2)"
        assert code.telemetry_key == "fr"


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    idx=st.integers(min_value=0, max_value=len(SHAPES) - 1),
)
def test_prop_roundtrip_and_uncoded_repair(seed, idx):
    k, r, rho = SHAPES[idx]
    code = make_code(k, r, rho)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (code.k, code.subpacketization), dtype=np.uint8)
    coded = code.encode(data)
    assert np.array_equal(coded[: code.k], data)
    failed = int(rng.integers(code.n))
    res = code.repair(failed, {i: coded[i] for i in range(code.n) if i != failed})
    assert np.array_equal(res.block, coded[failed])
    assert res.total_bytes_read == pytest.approx(coded.shape[1])
