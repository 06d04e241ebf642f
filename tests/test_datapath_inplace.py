"""The copy-free datapath: who owns a stripe's bytes, and what may alias.

The store keeps each stripe's ``(k, L)`` data once; codecs and conversions
write where the result is stored.  These tests pin the contracts that
makes safe: the store never aliases the caller's array, a lost row is
rebuilt without being read, conversions leave data memory alone and swap
parity only on success, destination-passing equals allocating, and the
whole path stays inside a fixed allocation budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import LocalReconstructionCode, MSRCode, ReedSolomonCode
from repro.fusion import CodeKind, ECFusion
from repro.fusion.transform import TransformAborted
from repro.gf import CodingPlan

POISON = 0xA5


def make_data(rng, k, L):
    return rng.integers(0, 256, (k, L), dtype=np.uint8)


def snapshot(store):
    return store.kind, store.data.copy(), [p.copy() for p in store.parity]


def assert_unchanged(store, snap):
    kind, data, parity = snap
    assert store.kind is kind
    assert np.array_equal(store.data, data)
    assert len(store.parity) == len(parity)
    for got, want in zip(store.parity, parity):
        assert np.array_equal(got, want)


# -- ownership ----------------------------------------------------------------


@pytest.mark.parametrize("to_msr", [False, True], ids=["rs", "msr"])
def test_store_does_not_alias_the_callers_array(to_msr):
    fusion = ECFusion(k=6, r=3)
    data = make_data(np.random.default_rng(1), 6, 36)
    original = data.copy()
    fusion.write("s", data)
    if to_msr:
        fusion.recover("s", 0)
        fusion.write("s", data)  # an overwrite, encoded directly as stored
    assert not np.shares_memory(fusion.read_stripe("s"), data)
    data[:] = POISON
    assert np.array_equal(fusion.read_stripe("s"), original)
    assert fusion.recover("s", 2).bytes_read > 0
    assert np.array_equal(fusion.read_stripe("s"), original)


def test_overwrite_reuses_the_stripes_buffers():
    fusion = ECFusion(k=6, r=3)
    rng = np.random.default_rng(2)
    fusion.write("s", make_data(rng, 6, 36))
    store = fusion._stripes["s"]
    data_buf, parity_buf = store.data, store.parity[0]
    fresh = make_data(rng, 6, 36)
    fusion.write("s", fresh)
    assert fusion._stripes["s"].data is data_buf
    assert fusion._stripes["s"].parity[0] is parity_buf
    assert np.array_equal(fusion.read_stripe("s"), fresh)
    # another block length cannot reuse them
    longer = make_data(rng, 6, 72)
    fusion.write("s", longer)
    assert np.array_equal(fusion.read_stripe("s"), longer)


# -- a lost row is never read ----------------------------------------------------


@pytest.mark.parametrize("k,r", [(6, 3), (4, 2), (4, 3), (5, 2), (7, 3)])
@pytest.mark.parametrize("to_msr", [False, True], ids=["rs", "msr"])
def test_poisoned_row_is_rebuilt_not_read(k, r, to_msr):
    rng = np.random.default_rng(3)
    L = r * r * 5
    fusion = ECFusion(k=k, r=r)
    data = make_data(rng, k, L)
    for _ in range(100):  # a write-heavy history keeps δ above η: stays RS
        fusion.write("s", data)
    if to_msr:
        while fusion.code_of("s") is not CodeKind.MSR:
            fusion.recover("s", 0)
    store = fusion._stripes["s"]
    want_kind = store.kind
    parity = [p.copy() for p in store.parity]
    for block in range(k):
        store.data[block] = POISON
        rep = fusion.recover("s", block)
        assert rep.code is want_kind
        assert np.array_equal(fusion.read_stripe("s"), data), block
    for index in range(store.parity_blocks):
        g, x = divmod(index, r)
        store.parity[g][x] = POISON
        assert fusion.recover_parity("s", index).block == k + index
        assert np.array_equal(store.parity[g], parity[g]), index
    assert store.kind is want_kind
    assert np.array_equal(fusion.read_stripe("s"), data)


@pytest.mark.parametrize("code", [ReedSolomonCode(5, 3), MSRCode(6, 3)],
                         ids=["rs", "msr"])
def test_codec_in_place_repair_ignores_the_lost_row(code):
    rng = np.random.default_rng(4)
    L = code.subpacketization * 7
    coded = code.encode(make_data(rng, code.k, L))
    for failed in range(code.n):
        data, parity = coded[: code.k].copy(), coded[code.k :].copy()
        row = data[failed] if failed < code.k else parity[failed - code.k]
        row[:] = POISON
        res = code.repair(failed, (data, parity))
        assert np.shares_memory(res.block, row)  # rebuilt where it is stored
        assert np.array_equal(data, coded[: code.k])
        assert np.array_equal(parity, coded[code.k :])
        shards = {i: coded[i] for i in range(code.n) if i != failed}
        assert res.bytes_read == code.repair(failed, shards).bytes_read


# -- conversions leave the data where it is --------------------------------------


@pytest.mark.parametrize("k,r", [(6, 3), (4, 3), (5, 2)])
def test_data_memory_survives_both_conversions(k, r):
    fusion = ECFusion(k=k, r=r)
    data = make_data(np.random.default_rng(5), k, r * r * 4)
    fusion.write("s", data)
    store = fusion._stripes["s"]
    before = fusion.read_stripe("s")
    fusion.transformer.convert(store, CodeKind.MSR)
    assert store.kind is CodeKind.MSR
    in_msr = fusion.read_stripe("s")
    assert np.shares_memory(before, in_msr)
    assert before.ctypes.data == in_msr.ctypes.data
    fusion.transformer.convert(store, CodeKind.RS)
    assert store.kind is CodeKind.RS
    after = fusion.read_stripe("s")
    assert np.shares_memory(before, after)
    assert before.ctypes.data == after.ctypes.data
    assert np.array_equal(after, data)
    assert np.array_equal(store.parity[0], fusion.rs.encode(data)[k:])


def _abort_at(n):
    """A fault hook whose ``n``-th probe aborts the conversion outright."""
    calls = []

    def hook(phase, group):
        calls.append((phase, group))
        if len(calls) == n + 1:
            raise TransformAborted(f"injected at probe {n}: {phase} {group}")

    return hook, calls


@pytest.mark.parametrize("direction", ["rs_to_msr", "msr_to_rs"])
def test_aborted_conversion_leaves_the_stripe_as_it_was(direction, monkeypatch):
    k, r, L = 6, 3, 36
    probe = 0
    while True:
        fusion = ECFusion(k=k, r=r)
        data = make_data(np.random.default_rng(6), k, L)
        fusion.write("s", data)
        store = fusion._stripes["s"]
        if direction == "msr_to_rs":
            fusion.recover("s", 0)  # the policy's own RS -> MSR conversion
            assert store.kind is CodeKind.MSR

            def convert():  # the converter's MSR -> RS edge
                fusion.transformer.convert(store, CodeKind.RS)
        else:

            def convert():  # the first recovery converts before it repairs
                fusion.recover("s", 0)

        snap = snapshot(store)
        hook, calls = _abort_at(probe)
        real = getattr(fusion.transformer, direction)
        monkeypatch.setattr(
            fusion.transformer, direction,
            lambda *a, _real=real, _hook=hook, **kw: _real(*a, **{**kw, "fault_hook": _hook}),
        )
        try:
            convert()
        except TransformAborted:
            assert len(calls) == probe + 1
            assert_unchanged(store, snap)  # byte-identical, still in its old code
            monkeypatch.undo()
            store.data[1] = POISON  # ... and still repairable, as that code
            assert fusion.recover("s", 1).code is snap[0]
            assert np.array_equal(fusion.read_stripe("s"), data)
            probe += 1
            continue
        # the hook was never asked an ``probe``-th time: every probe point is covered
        assert len(calls) == probe and probe >= 2
        assert store.kind is not snap[0]
        break


# -- destination validation --------------------------------------------------------


@pytest.mark.parametrize(
    "code",
    [ReedSolomonCode(4, 2), MSRCode(4, 2), LocalReconstructionCode(4, 2, 2)],
    ids=["rs", "msr", "lrc"],
)
def test_encode_rejects_a_bad_destination(code):
    L = code.subpacketization * 4
    data = make_data(np.random.default_rng(7), code.k, L)
    bad = [
        np.empty((code.n + 1, L), np.uint8),  # wrong rows
        np.empty((code.n, L + code.subpacketization), np.uint8),  # wrong length
        np.empty((code.n, L), np.uint16),  # wrong dtype
        np.empty((L, code.n), np.uint8).T,  # not C-contiguous
        np.empty((code.n, 2 * L), np.uint8)[:, ::2],  # strided columns
        [[0] * L] * code.n,  # not an array
    ]
    for out in bad:
        with pytest.raises(ValueError):
            code.encode(data, out=out)
    with pytest.raises(ValueError):  # short data only goes with a bare parity buffer
        code.encode(data[:-1], out=np.empty((code.n, L), np.uint8))


def test_apply_into_rejects_a_bad_destination():
    plan = CodingPlan(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8))
    blocks = make_data(np.random.default_rng(8), 3, 64)
    for out in (
        np.empty((3, 64), np.uint8),
        np.empty((2, 63), np.uint8),
        np.empty((2, 64), np.uint16),
        np.empty((64, 2), np.uint8).T,
    ):
        with pytest.raises(ValueError):
            plan.apply_into(blocks, out)
    with pytest.raises(ValueError):  # tail rows must complete the input exactly
        plan.apply_into(blocks[:2], np.empty((2, 64), np.uint8), tail=blocks[1:])
    readonly = np.empty((2, 64), np.uint8)
    readonly.flags.writeable = False
    with pytest.raises(ValueError):
        plan.apply_into(blocks, readonly)


def test_in_place_repair_rejects_a_bad_stripe():
    rs = ReedSolomonCode(4, 2)
    coded = rs.encode(make_data(np.random.default_rng(9), 4, 16))
    data, parity = coded[:4].copy(), coded[4:].copy()
    for stripe in (
        (data, parity[:1]),  # wrong parity rows
        (data[:3], parity),  # RS stripes are never shortened
        (data.astype(np.uint16), parity),
        (data[:, ::2], parity[:, ::2]),
        (data,),
        data,
    ):
        with pytest.raises(ValueError):
            rs.repair(0, stripe)
    msr = MSRCode(4, 2)
    coded = msr.encode(make_data(np.random.default_rng(9), 2, 16))
    with pytest.raises(ValueError):  # node 1 is a virtual block of this short stripe
        msr.repair(1, (coded[:1].copy(), coded[2:].copy()))


# -- split input rows ---------------------------------------------------------------


@given(
    rows=st.integers(1, 6), cols=st.integers(1, 9), split=st.integers(0, 9),
    ncols=st.sampled_from([1, 7, 64, 1025, 5000]), seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_tail_rows_and_strided_views_match_one_contiguous_input(rows, cols, split, ncols, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    m[rng.random(m.shape) < 0.3] = 0
    plan = CodingPlan(m)
    blocks = rng.integers(0, 256, (cols, ncols), dtype=np.uint8)
    want = plan.apply(blocks)
    split = min(split, cols)
    out = np.empty((rows, ncols), np.uint8)
    plan.apply_into(blocks[:split].copy(), out, tail=blocks[split:].copy())
    assert np.array_equal(out, want)
    # row-strided input and output: column windows of wider buffers
    wide_in = rng.integers(0, 256, (cols, ncols + 11), dtype=np.uint8)
    wide_in[:, 3 : 3 + ncols] = blocks
    wide_out = np.full((rows, ncols + 5), POISON, np.uint8)
    plan.apply_into(wide_in[:, 3 : 3 + ncols], wide_out[:, 2 : 2 + ncols])
    assert np.array_equal(wide_out[:, 2 : 2 + ncols], want)
    assert (wide_out[:, :2] == POISON).all() and (wide_out[:, 2 + ncols :] == POISON).all()
    plan.apply_into(blocks, out, accumulate=True)  # x ^ x == 0
    assert not out.any()


# -- destination-passing == allocating ----------------------------------------------


def _codes(k, r):
    yield ReedSolomonCode(k, r)
    yield LocalReconstructionCode(2 * k, r, 2)  # the LinearVectorCode base paths
    if (k + r) % r == 0:
        yield MSRCode(k + r, k)


@given(k=st.integers(2, 4), r=st.integers(2, 3), mult=st.integers(1, 40), seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_destination_passing_equals_allocating(k, r, mult, seed):
    rng = np.random.default_rng(seed)
    for code in _codes(k, r):
        L = code.subpacketization * mult
        data = make_data(rng, code.k, L)
        coded = code.encode(data)
        assert np.array_equal(coded[: code.k], data)
        codeword = np.full((code.n, L), POISON, np.uint8)
        assert code.encode(data, out=codeword) is codeword
        assert np.array_equal(codeword, coded)
        parity = np.full((code.n - code.k, L), POISON, np.uint8)
        assert code.encode(data, out=parity) is parity
        assert np.array_equal(parity, coded[code.k :])
        if isinstance(code, LocalReconstructionCode):
            continue  # repair has no in-place form outside RS/MSR
        for failed in range(code.n):
            shards = {i: coded[i] for i in range(code.n) if i != failed}
            fresh = code.repair(failed, shards)
            stored = (coded[: code.k].copy(), coded[code.k :].copy())
            in_place = code.repair(failed, stored)
            assert np.array_equal(fresh.block, coded[failed])
            assert np.array_equal(in_place.block, coded[failed])
            assert fresh.bytes_read == in_place.bytes_read


@given(real=st.integers(1, 2), mult=st.integers(1, 20), seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_shortened_stripe_equals_zero_padded_stripe(real, mult, seed):
    """Virtual zero blocks need not exist: dropping them changes no byte."""
    msr = MSRCode(6, 3)
    L = msr.subpacketization * mult
    rng = np.random.default_rng(seed)
    padded = np.zeros((3, L), np.uint8)
    padded[:real] = make_data(rng, real, L)
    coded = msr.encode(padded)
    parity = np.empty((3, L), np.uint8)
    msr.encode(padded[:real], out=parity)
    assert np.array_equal(parity, coded[3:])
    for failed in [*range(real), 3, 4, 5]:
        data, par = padded[:real].copy(), coded[3:].copy()
        (data[failed] if failed < 3 else par[failed - 3])[:] = POISON
        res = msr.repair(failed, (data, par))
        assert np.array_equal(res.block, coded[failed])
        # only stored helpers are read: 1/r of each, virtual blocks not counted
        assert res.bytes_read == {
            i: L // 3 for i in (*range(real), 3, 4, 5) if i != failed
        }


# -- allocation budget -----------------------------------------------------------------

needs_native = pytest.mark.skipif(
    CodingPlan(np.ones((1, 2), np.uint8)).backend_for(1 << 17) != "native",
    reason="the NumPy fallback backends gather into temporaries",
)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@needs_native
def test_allocation_budget_at_megabyte_blocks():
    """Peak bytes allocated per operation, in blocks of L = 1.125 MiB.

    NumPy reports its buffers to tracemalloc, so the peaks are exact and
    repeatable — unlike wall time on a shared host.  Before the copy-free
    datapath an MSR recover peaked near 7 blocks.
    """
    k, r, q = 6, 3, 2
    L = 9 << 17
    slack = 64 << 10
    data = make_data(np.random.default_rng(10), k, L)
    fusion = ECFusion(k=k, r=r)
    peaks = {}
    # the first pass compiles every lazily built plan; the second is measured
    for stripe in ("warm", "s"):
        fusion.write(stripe + "/rs", data)
        peaks["rs write"] = _peak(lambda: fusion.write(stripe + "/rs", data))
        fusion.write(stripe, data)
        store = fusion._stripes[stripe]
        # the first recovery converts RS -> MSR (``convert``), then repairs
        peaks["to_msr"] = _peak(lambda: fusion.recover(stripe, 2))
        assert store.kind is CodeKind.MSR
        peaks["msr recover"] = _peak(lambda: fusion.recover(stripe, 3))
        peaks["msr parity"] = _peak(lambda: fusion.recover_parity(stripe, 5))
        peaks["msr write"] = _peak(lambda: fusion.write(stripe, data))
        assert store.kind is CodeKind.MSR
        peaks["to_rs"] = _peak(lambda: fusion.transformer.convert(store, CodeKind.RS))
        assert store.kind is CodeKind.RS
        peaks["rs recover"] = _peak(lambda: fusion.recover(stripe, 1))
        assert store.kind is CodeKind.RS
        assert np.array_equal(fusion.read_stripe(stripe), data)

    assert peaks["rs write"] <= slack and peaks["msr write"] <= slack
    assert peaks["to_msr"] <= (q * r + r) * L + slack
    assert peaks["to_rs"] <= r * L + slack
    for op in ("msr recover", "msr parity", "rs recover"):
        assert peaks[op] <= L // 4, op
