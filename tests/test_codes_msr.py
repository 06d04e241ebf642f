"""Tests for the coupled-layer MSR code — MDS + optimal repair bandwidth."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import MSRCode, ParameterError, UnrecoverableError


def make_data(rng, code, blocks=4):
    L = code.subpacketization * blocks
    return rng.integers(0, 256, (code.k, L), dtype=np.uint8)


class TestConstruction:
    def test_paper_configuration(self):
        """MSR(2r, r, r, r²) with r=3 — the EC-Fusion building block."""
        msr = MSRCode(6, 3)
        assert (msr.n, msr.k, msr.r) == (6, 3, 3)
        assert msr.s == 3 and msr.m == 2
        assert msr.subpacketization == 9  # l = r²
        assert msr.fault_tolerance == 3
        assert msr.name == "MSR(6,3,3,9)"

    def test_generator_shape_and_systematic(self):
        msr = MSRCode(4, 2)
        l = msr.subpacketization
        assert msr.generator.shape == (4 * l, 2 * l)
        assert np.array_equal(msr.generator[: 2 * l], np.eye(2 * l, dtype=np.uint8))

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (6, 4), (8, 6)])
    def test_valid_parameter_grid(self, n, k):
        msr = MSRCode(n, k)
        r = n - k
        assert msr.subpacketization == r ** (n // r)

    def test_r_must_divide_n(self):
        with pytest.raises(ParameterError):
            MSRCode(7, 4)

    def test_indivisible_n_rejected(self):
        with pytest.raises(ParameterError):
            MSRCode(3, 1)  # r=2 does not divide n=3


class TestPlaneGeometry:
    def test_digits_roundtrip(self):
        msr = MSRCode(6, 3)
        for z in range(msr.subpacketization):
            digits = [msr._digit(z, y) for y in range(msr.m)]
            rebuilt = sum(d * msr.s**y for y, d in enumerate(digits))
            assert rebuilt == z

    def test_partner_is_involution(self):
        msr = MSRCode(6, 3)
        for i in range(msr.n):
            for z in range(msr.subpacketization):
                part = msr._partner(i, z)
                if part is None:
                    x, y = msr._coords(i)
                    assert msr._digit(z, y) == x
                else:
                    j, z2 = part
                    assert msr._partner(j, z2) == (i, z)

    def test_repair_planes_count(self):
        msr = MSRCode(6, 3)
        for f in range(6):
            planes = msr.repair_planes(f)
            assert len(planes) == msr.subpacketization // msr.s


class TestEncodeDecode:
    def test_systematic(self):
        rng = np.random.default_rng(0)
        msr = MSRCode(4, 2)
        data = make_data(rng, msr)
        coded = msr.encode(data)
        assert np.array_equal(coded[:2], data)

    def test_mds_all_erasure_patterns(self):
        """Any r losses are decodable, any k survivors suffice."""
        rng = np.random.default_rng(1)
        msr = MSRCode(6, 3)
        data = make_data(rng, msr, blocks=2)
        coded = msr.encode(data)
        for erased in itertools.combinations(range(6), 3):
            shards = {i: coded[i] for i in range(6) if i not in erased}
            assert np.array_equal(msr.decode(shards), coded), erased

    def test_partial_erasures_decodable(self):
        rng = np.random.default_rng(2)
        msr = MSRCode(6, 3)
        coded = msr.encode(make_data(rng, msr))
        shards = {i: coded[i] for i in range(6) if i != 4}
        assert np.array_equal(msr.decode(shards), coded)

    def test_too_many_erasures_raise(self):
        rng = np.random.default_rng(3)
        msr = MSRCode(4, 2)
        coded = msr.encode(make_data(rng, msr))
        with pytest.raises(UnrecoverableError):
            msr.decode({0: coded[0]})

    def test_block_length_must_be_multiple_of_l(self):
        msr = MSRCode(4, 2)
        with pytest.raises(ValueError):
            msr.encode(np.zeros((2, 7), dtype=np.uint8))

    def test_encode_linear(self):
        rng = np.random.default_rng(4)
        msr = MSRCode(4, 2)
        a, b = make_data(rng, msr), make_data(rng, msr)
        assert np.array_equal(msr.encode(a ^ b), msr.encode(a) ^ msr.encode(b))


class TestOptimalRepair:
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (6, 4)])
    def test_repair_every_node_correct(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        msr = MSRCode(n, k)
        coded = msr.encode(make_data(rng, msr, blocks=3))
        for f in range(n):
            res = msr.repair(f, {i: coded[i] for i in range(n) if i != f})
            assert np.array_equal(res.block, coded[f]), f"repair of node {f} wrong"

    def test_repair_bandwidth_is_optimal(self):
        """Each helper contributes exactly 1/s of a block: (n−1)/r total."""
        rng = np.random.default_rng(5)
        msr = MSRCode(6, 3)
        L = msr.subpacketization * 8
        coded = msr.encode(rng.integers(0, 256, (3, L), dtype=np.uint8))
        res = msr.repair(0, {i: coded[i] for i in range(1, 6)})
        assert set(res.bytes_read) == set(range(1, 6))
        for b in res.bytes_read.values():
            assert b == L // msr.s
        naive = msr.k * L
        assert res.total_bytes_read == (msr.n - 1) * L // msr.s
        assert res.total_bytes_read < naive

    def test_repair_read_fractions_plan(self):
        msr = MSRCode(6, 3)
        plan = msr.repair_read_fractions(2)
        assert set(plan) == {0, 1, 3, 4, 5}
        assert all(v == pytest.approx(1 / 3) for v in plan.values())

    def test_repair_with_missing_helper_falls_back(self):
        """With n−2 survivors the optimal path is impossible; decode instead."""
        rng = np.random.default_rng(6)
        msr = MSRCode(6, 3)
        coded = msr.encode(make_data(rng, msr))
        shards = {i: coded[i] for i in (1, 2, 3, 4)}  # nodes 0 and 5 gone
        res = msr.repair(0, shards)
        assert np.array_equal(res.block, coded[0])

    def test_repair_rejects_present_node(self):
        rng = np.random.default_rng(7)
        msr = MSRCode(4, 2)
        coded = msr.encode(make_data(rng, msr))
        with pytest.raises(ValueError):
            msr.repair(1, {i: coded[i] for i in range(4)})

    @pytest.mark.parametrize("failed", [-1, 4])
    def test_repair_rejects_out_of_range_node(self, failed):
        """No repair matrix exists for a node outside the stripe: refused,
        never derived."""
        rng = np.random.default_rng(7)
        msr = MSRCode(4, 2)
        coded = msr.encode(make_data(rng, msr))
        with pytest.raises(ValueError, match="out of range"):
            msr.repair(failed, {i: coded[i] for i in range(4)})
        assert not msr._repair_matrices

    def test_repair_block_length_validation(self):
        msr = MSRCode(4, 2)
        bad = {i: np.zeros(7, dtype=np.uint8) for i in range(1, 4)}
        with pytest.raises(ValueError):
            msr.repair(0, bad)

    def test_repair_plans_built_on_first_use(self):
        """A fresh code holds no repair matrix or plan; repairing node f
        derives f's matrix and compiles f's plan only."""
        msr = MSRCode(12, 9)
        assert not msr._repair_matrices and not msr._repair_fused and not msr._helper_plans
        rng = np.random.default_rng(11)
        coded = msr.encode(make_data(rng, msr, blocks=1))
        res = msr.repair(4, {i: coded[i] for i in range(12) if i != 4})
        assert np.array_equal(res.block, coded[4])
        assert list(msr._repair_matrices) == [4] and list(msr._repair_fused) == [(4, 9)]
        # a shortened stripe (7 stored data rows) compiles its own plan from
        # the same matrix
        data = coded[:7].copy()
        parity = msr.encode(data, out=np.empty((3, data.shape[1]), np.uint8))
        lost = parity[1].copy()
        parity[1] = 0
        assert np.array_equal(msr.repair(10, (data, parity)).block, lost)
        assert list(msr._repair_matrices) == [4, 10]
        assert list(msr._repair_fused) == [(4, 9), (10, 7)]
        assert not msr._helper_plans


class TestDecodeFromParitiesOnly:
    def test_k_equals_r_configuration(self):
        """MSR(2r, r): parities alone rebuild all data (used by msr_to_rs)."""
        rng = np.random.default_rng(8)
        msr = MSRCode(6, 3)
        data = make_data(rng, msr)
        coded = msr.encode(data)
        shards = {i: coded[i] for i in range(3, 6)}
        rec = msr.decode(shards)
        assert np.array_equal(rec[:3], data)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_prop_repair_equals_erased_block(seed):
    rng = np.random.default_rng(seed)
    msr = MSRCode(4, 2)
    L = msr.subpacketization * int(rng.integers(1, 5))
    data = rng.integers(0, 256, (2, L), dtype=np.uint8)
    coded = msr.encode(data)
    f = int(rng.integers(0, 4))
    res = msr.repair(f, {i: coded[i] for i in range(4) if i != f})
    assert np.array_equal(res.block, coded[f])


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_prop_decode_any_k_subset(seed):
    rng = np.random.default_rng(seed)
    msr = MSRCode(6, 3)
    data = rng.integers(0, 256, (3, msr.subpacketization), dtype=np.uint8)
    coded = msr.encode(data)
    keep = sorted(rng.choice(6, size=3, replace=False))
    rec = msr.decode({i: coded[i] for i in keep})
    assert np.array_equal(rec, coded)


class TestPaperBaselineConfigs:
    """The IH-EC baseline shapes of §IV-B: MSR(k+3, k, 3, l)."""

    def test_msr_9_6_paper_config(self):
        """k=6: MSR(9,6,3,27) — no virtual node needed."""
        msr = MSRCode(9, 6)
        assert msr.subpacketization == 27
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, (6, 27), dtype=np.uint8)
        coded = msr.encode(data)
        res = msr.repair(4, {i: coded[i] for i in range(9) if i != 4})
        assert np.array_equal(res.block, coded[4])
        # optimal bandwidth: (n-1)/r blocks vs k
        assert res.total_bytes_read * 3 == 8 * coded.shape[1]


class TestConstraintInvariants:
    """Direct algebraic checks on the coupled construction."""

    def test_every_codeword_in_constraint_nullspace(self):
        """A @ c = 0 for the constraint matrix A and any codeword c."""
        from repro.gf import mat_vec

        msr = MSRCode(6, 3)
        rng = np.random.default_rng(9)
        data = rng.integers(0, 256, (3, msr.subpacketization), dtype=np.uint8)
        coded = msr.encode(data)
        flat = coded.reshape(-1)  # symbol layout: node*l + plane
        assert not mat_vec(msr._constraints, flat).any()

    def test_uncoupled_planes_are_scalar_codewords(self):
        """Undo the pairwise coupling by hand; each plane must satisfy H_s."""
        from repro.gf import GF, inverse, mat_vec

        msr = MSRCode(6, 3)
        gf = GF.get()
        rng = np.random.default_rng(10)
        data = rng.integers(0, 256, (3, msr.subpacketization), dtype=np.uint8)
        coded = msr.encode(data)
        l = msr.subpacketization
        c = coded.reshape(msr.n, l)
        _, Minv = msr._coupling_coeffs()
        u = np.zeros_like(c)
        for i in range(msr.n):
            for z in range(l):
                part = msr._partner(i, z)
                if part is None:
                    u[i, z] = c[i, z]
                else:
                    j, z2 = part
                    xi, _ = msr._coords(i)
                    xj, _ = msr._coords(j)
                    row = Minv[0] if xi < xj else Minv[1]
                    a, b = (c[i, z], c[j, z2]) if xi < xj else (c[j, z2], c[i, z])
                    u[i, z] = int(gf.add(gf.mul(int(row[0]), int(a)),
                                         gf.mul(int(row[1]), int(b))))
        for z in range(l):
            assert not mat_vec(msr.h_scalar, u[:, z]).any(), z


#: sha256 of ``_repair_matrix(f).tobytes()`` per failed node, recorded at
#: commit d7a9440 while the plane-batched kernel still derived the matrices.
#: Do not re-record: these pin the fused repair plan across rederivations.
REPAIR_MATRIX_SHA256 = {
    (4, 2): [
        "655ccbf14c60a6f61b3b94508882f1f11cc3451f8ea30e74cdc327a2f920f452",
        "1acd238c91886cd57b5d9d1974d0d54791110dafb866c6e6f7c60e9913fc8bb8",
        "bbd997b6effee1e80a329d001d2362932513ca17681c9147782da43b99d32e1f",
        "fed4211a3cc9d60f9affea1221a2e4035342a877f289347b4e40b942a5f3bb43",
    ],
    (6, 3): [
        "e21c9392a22729185ee5f981ef66b369cf8138df9d930ef296c5e60280bfb5e8",
        "3d63b2be9732449960f48032d2a1efb0d2889c2cda1a5ea91834ede0b068b3b9",
        "64680b20676981f4e8a17915c126828c67deefcd0f4f32490f6d58f6100b62d4",
        "4cca30d404730ccbe7d8eed8a5ded78615056ba926aac6100a5aa15e2a656d14",
        "d38e96314fde58fa9082448bb41d79f1b97b52f6b27b37c75cbebc0b9401e5bb",
        "82e72184ee65d25cdcb5965b03e43fefa1fdde0d0d238c2ba9b7507e0aea0c4f",
    ],
    (8, 4): [
        "96b1642096dd218c1982b82322d955dbfab6f89ad594a4ae73ff156bb67d10fe",
        "cd4614f4dafbf6dc2ac1636f79f4a97f6f0615e1d443959a3472e877ccc729da",
        "f069af1796c321a8a0cd981ef1bd9725c1b07b52a9a398d08884d99e309a7052",
        "a5f19c7521d79c6d7b79c149455c359659b9700592585094c5e6ec98c43343ba",
        "85020b42f7638b3a98ac88a9e646ddfc038b2ef36a0eb25627dd26a549404c4e",
        "5398282c51f69fcb0c835c5b78a1b7fea3c23c999fc00f51e328ef3eb48a91ba",
        "d394978a88ab4b2c10fb612ef3faaf589ed9b152c5f143adce813e39d0fa0bc2",
        "47a7118e2adfa6b65f9cb4bd1970cff00cf448bce8f5d5e680eed14cdef06adc",
    ],
    (9, 6): [
        "9599aabbe7539dcd740f640e4a31270ce52fab7671c1fd7fbeeb4c7d5b307a25",
        "572efd93fbb91441fd1a9fb82c226bab734d810457cf425a3f562e9cbf3d44ed",
        "8319790f8360f89c3adf4b888068673aaf1a561d3eddcec37f9035d7b8a48558",
        "6bcbed4205bd20b2a7bf38467ac901adf57f337773c01e8dcd71b773cd8e8c08",
        "3f442930cf217241a11337ff707f454152e091ee8225fbb957fe819e755cb501",
        "3049d76166ac6c52bebe75044411d0316ee80c839a422262c995caf4c80e967a",
        "87fa5e7be17a28d1bf883c67eff895b13eed14dd0f919d0e77b167fb89d8c47f",
        "0b3fcd4a023b6218eae6667864499fa6d2d984f7dcfcae6bbcc87f70008db9e7",
        "36a78d80ae08707ee52d45d811c45d4d9ee85261aff5ff5d95dacf96a75caff9",
    ],
    (12, 9): [
        "a911b0636cf0fc3ce3180c9fff4ad4c2fdb5f924d8199c656ed888674a6e5600",
        "bc58648f7c31eb6d30d23ee267f8a0cc271f56b0f3723886585a831b924bebac",
        "255f65fadd0c02626c134b58c578d230be83f0b9b684c4dc781a837527aeeb7f",
        "91d8fa1d9b89caba9eb673ef42ffc4e571ad5458e352e9bb9afa392e919cbcd5",
        "0230f305e2878173008bbef2e1f144dfa779b78fc33630ecb7a2cfeb470d4b7e",
        "d755873b8f2e8711c2bc35993794950ae2d4335f266325b886cc0260066b4cdd",
        "ac534a00fc204b9f608310d100ea31b7be7dc004795a39b889fc690ef9146025",
        "06e0e7677dc3ab0fe8959b032f83e33849360927a86e85bb7241d82bbcb94863",
        "2e91ddf438bad480b1693fdf2374ccbbcd1e82b5b38fd2d2a2c37e569be0dd59",
        "5d196c6816f4bce7eb6b0eecbf478086adad9d00d0b52dc9ec44060aaad94904",
        "2d7cfc47d5d70b85657440fd4fcfca68e3256640421c95023e5ba943a6d8632c",
        "6cc73859bcdd7f1ee675924258843d5c98e1f124b61c8e5437acc21db4dbcc66",
    ],
}


@pytest.mark.parametrize("nk", REPAIR_MATRIX_SHA256, ids=lambda nk: f"msr{nk[0]}_{nk[1]}")
def test_repair_matrix_digests(nk):
    """The fused ``(l × n·l)`` repair matrix of every node is unchanged."""
    n, k = nk
    msr = MSRCode(n, k)
    l = msr.subpacketization
    for f, want in enumerate(REPAIR_MATRIX_SHA256[nk]):
        mat = msr._repair_matrix(f)
        assert mat.shape == (l, n * l) and mat.dtype == np.uint8
        assert not mat[:, f * l : (f + 1) * l].any()  # the lost node is never read
        assert hashlib.sha256(mat.tobytes()).hexdigest() == want, f"node {f}"
