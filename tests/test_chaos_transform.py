"""Mid-conversion fault injection for the RS↔MSR transform (§III-D) and
the conversion-safety sweep over every edge of the code-family graph.

A conversion interrupted by a source loss must either complete with
byte-identical output via its documented failover path, or abort cleanly
with :class:`TransformAborted` leaving every input array untouched — a
stripe is never left half-converted.
"""

import warnings

import numpy as np
import pytest

from repro.chaos import verify_conversion_safety
from repro.fusion import ChunkUnavailable, FusionTransformer, TransformAborted


def lose(*targets):
    """Fault hook raising ChunkUnavailable for the given (phase, group) set."""
    lost = set(targets)

    def hook(phase, group):
        if (phase, group) in lost:
            raise ChunkUnavailable(phase, group)

    return hook


def make_case(k=4, r=2, seed=0):
    tr = FusionTransformer(k=k, r=r)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, (k, tr.subpacketization * 4), dtype=np.uint8)
    coded = tr.rs.encode(data)
    return tr, data, coded[k:]


class TestRsToMsrFaults:
    def test_clean_baseline(self):
        tr, data, parity = make_case()
        base = tr.rs_to_msr(data, parity)
        again = tr.rs_to_msr(data, parity, fault_hook=lose())
        for g1, g2 in zip(base.groups, again.groups):
            assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (6, 2), (5, 2)])
    def test_single_data_group_loss_byte_identical(self, k, r):
        tr, data, parity = make_case(k=k, r=r, seed=k * 10 + r)
        base = tr.rs_to_msr(data, parity)
        for i in range(tr.q - 1):  # every normally-read group
            out = tr.rs_to_msr(data, parity, fault_hook=lose(("data", i)))
            for g1, g2 in zip(base.groups, out.groups):
                assert np.array_equal(g1, g2), f"group loss {i} not byte-identical"
            # failover reads the normally-skipped group instead of group i
            assert out.cost.data_blocks_read == base.cost.data_blocks_read

    def test_parity_loss_reads_all_groups(self):
        tr, data, parity = make_case()
        base = tr.rs_to_msr(data, parity)
        out = tr.rs_to_msr(data, parity, fault_hook=lose(("parity", -1)))
        for g1, g2 in zip(base.groups, out.groups):
            assert np.array_equal(g1, g2)
        assert out.cost.parity_blocks_read == 0
        assert out.cost.data_blocks_read == tr.q * tr.r  # all groups read

    def test_double_loss_aborts_inputs_untouched(self):
        tr, data, parity = make_case()
        if tr.q < 2:
            pytest.skip("needs at least two data groups")
        snap_data, snap_parity = data.copy(), parity.copy()
        with pytest.raises(TransformAborted):
            tr.rs_to_msr(data, parity, fault_hook=lose(("data", 0), ("data", tr.q - 1)))
        assert np.array_equal(data, snap_data)
        assert np.array_equal(parity, snap_parity)

    def test_parity_and_group_loss_aborts(self):
        tr, data, parity = make_case()
        with pytest.raises(TransformAborted):
            tr.rs_to_msr(data, parity, fault_hook=lose(("parity", -1), ("data", 0)))


class TestMsrToRsFaults:
    def test_parity_group_loss_fails_over_to_data(self):
        tr, data, parity = make_case()
        fwd = tr.rs_to_msr(data, parity)
        msr_pars = [g[tr.r :] for g in fwd.groups]
        for i in range(tr.q):
            out = tr.msr_to_rs(msr_pars, fault_hook=lose(("parity", i)), data=data)
            assert np.array_equal(out.parity, parity), f"group {i} failover differs"
            assert out.cost.data_blocks_read == tr.r

    def test_parity_group_loss_without_data_aborts(self):
        tr, data, parity = make_case()
        fwd = tr.rs_to_msr(data, parity)
        msr_pars = [g[tr.r :] for g in fwd.groups]
        snaps = [p.copy() for p in msr_pars]
        with pytest.raises(TransformAborted):
            tr.msr_to_rs(msr_pars, fault_hook=lose(("parity", 0)))
        for p, s in zip(msr_pars, snaps):
            assert np.array_equal(p, s)

    def test_parity_and_its_data_loss_aborts(self):
        tr, data, parity = make_case()
        fwd = tr.rs_to_msr(data, parity)
        msr_pars = [g[tr.r :] for g in fwd.groups]
        with pytest.raises(TransformAborted):
            tr.msr_to_rs(
                msr_pars, fault_hook=lose(("parity", 1), ("data", 1)), data=data
            )


@pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (6, 2), (5, 2), (8, 3), (12, 4)])
def test_conversion_safety_sweep(k, r):
    """The invariant-harness conversion check over every edge of the
    code-family graph: every single loss within the source's tolerance
    byte-identical, every beyond-failover loss a clean abort.  Only a
    family that cannot exist at the shape is skipped, and says so."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        failures = verify_conversion_safety(k, r, np.random.default_rng(99))
    assert failures == []
    skipped = [str(w.message) for w in caught]
    if (k, r) == (5, 2):  # LRC(5, 2, 2): z = 2 does not divide k = 5
        assert skipped == ["conversion sweep at (5,2) skips lrc: z=2 must divide k=5"]
    else:
        assert skipped == []
