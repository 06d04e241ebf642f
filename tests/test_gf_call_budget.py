"""What one block application costs the interpreter, in counts rather than seconds.

At 4,608-byte blocks the SIMD kernel is about a microsecond and the
Python around it is the rest (``docs/performance.md``, per-application
cost), so the regression that matters on ``bytes_small`` is a frame
creeping back into :meth:`CodingPlan.apply_into` — a property chain, an
``os.environ.get`` that raises and catches ``KeyError``, a marshalling
helper.  Wall time on a shared host cannot gate that; the number of
Python-level calls one warm application makes is a pure function of the
code, so it gates in tier-1 the way ``scripts/profile_sim.py --check``
gates the DES kernel.

The same holds one layer up: a conversion or a repair is a few kernel
calls, so each public entry on the real-bytes path — ``convert`` on either
highway edge, ``ECFusion.recover`` and ``ECFusion.write`` — is gated on
its frames too, and each highway edge on its kernel calls and on the GF
work they do (units × width: one multiply-accumulate byte per unit per
column).
"""

import gc
import sys

import numpy as np
import pytest

from repro.codes import MSRCode
from repro.fusion import CodeKind, ECFusion
from repro.gf import CodingPlan, native, native_info, systematic_rs_parity

#: Python-level calls of one warm native ``apply_into`` (measured: 1, the
#: entry doing the checks; 5 before, 13 before the unforced-native
#: short-cut, 27 before the fastcall entry)
APPLY_CEILING = 2
#: ... of one ``ECFusion.recover`` on a stripe already in MSR form
#: (measured: 9; 20 before, 49 before that, 73 before that)
RECOVER_CEILING = 10
#: ... of one warm ``FusionTransformer.convert`` on each highway edge
#: (measured: 5 and 5 — two fewer kernel calls on RS → MSR; 7 and 5
#: before, 24 and 20 before that, 69 and 51 before that)
CONVERT_CEILINGS = {"msr": 6, "rs": 6}
#: ... and of one ``ECFusion.write`` of a new stripe (measured: 10 — the
#: copy-through encode checks the stored stripe and takes the data the
#: store has already checked; 10 before, 17 before that, 39 before that)
WRITE_CEILING = 11
#: kernel calls of one fault-free conversion at (6, 3) on each highway edge:
#: RS → MSR encodes the group it reads and rebuilds and encodes the other
#: in one chained call; MSR → RS merges both groups' Trans1 in one call (3
#: and 1 before, 3 and 2 before that)
KERNEL_CALLS = {"msr": 1, "rs": 1}
#: a block length whose symbol rows are wide enough for every chain to run
WIDE = 9 * native.CHAIN_MIN_WIDTH
#: ``bytes_small``'s block length: 512-byte symbol rows, where only a chain
#: that needs at most half its product's units runs (the others run their
#: dense units)
NARROW = 4608
#: GF work of one RS → MSR conversion at (6, 3), in multiples of the block
#: length: the coupled-layer MSR encode of each group (17 each) and the
#: rebuild of the unread group's data (18), at either width — 82 before,
#: with the dense MSR encoder (25), [B_0 | I] (12) and one Trans2 (45); 99
#: before that
RS_TO_MSR_WORK = 52
#: ... of one MSR → RS conversion at (6, 3): each group's parity through the
#: coupled-layer inverse encoder (17 each), then [B_0 | B_1] (18); narrow,
#: the dense [Trans1_0 | Trans1_1] (80, as before at both widths)
MSR_TO_RS_WORK = {NARROW: 80, WIDE: 52}
#: ... of one MSR(6, 3) parity encode per group: uncouple (4), one scalar
#: MDS encode per plane (9), recouple (4); narrow, the dense generator rows
#: (25, as before at both widths)
MSR_ENCODE_WORK = {NARROW: 25, WIDE: 17}


@pytest.fixture(autouse=True)
def _native_path(monkeypatch):
    monkeypatch.delenv("REPRO_GF_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_GF_NATIVE", raising=False)
    if native_info().get("entry") != "fastcall":
        pytest.skip(f"the budget is the fastcall entry's: {native_info()}")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call of the kernel entry from here on, as ``(units run, width)``
    — a chained program's dense units on a call narrower than its head's
    ``CHAIN_MIN_WIDTH``."""
    calls = []
    real, info = native._cached[0]

    def entry(*args):
        head, width = args[0], args[3].shape[1]
        narrow = len(head) > 7 and head[8] and width < head[9]
        calls.append((head[8] if narrow else head[4], width))
        return real(*args)

    monkeypatch.setattr(native, "_cached", [(entry, info)])
    return calls


def profiled(fn):
    """Run ``fn()`` → (Python-level calls, exception types raised inside).

    A collection first, so that no garbage collection (whose callbacks a
    test library may have registered) runs inside ``fn``.
    """
    gc.collect()
    calls, raised = [], []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    def tracer(frame, event, arg):
        if event == "exception":
            raised.append(arg[0].__name__)
        return tracer

    sys.settrace(tracer)
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return calls, raised


def test_one_application_is_a_handful_of_frames_and_one_c_call():
    plan = CodingPlan(systematic_rs_parity(6, 3))
    blocks = np.random.default_rng(1).integers(0, 256, (6, 4608), dtype=np.uint8)
    out = np.empty((3, 4608), np.uint8)
    assert plan.backend_for(4608) == "native"
    plan.apply_into(blocks, out)  # warm: lowers the unit program
    calls, raised = profiled(lambda: plan.apply_into(blocks, out))
    calls = calls[1:]  # the lambda
    assert calls[0] == "apply_into"
    assert len(calls) <= APPLY_CEILING, calls
    # unset switches are dict probes, not a KeyError raised and caught
    assert raised == []


def test_one_recovery_on_a_converted_stripe_stays_under_its_ceiling():
    fusion = ECFusion(6, 3)
    data = np.random.default_rng(2).integers(0, 256, (6, 4608), dtype=np.uint8)
    fusion.write("s", data)
    fusion.recover("s", 1)  # converts to MSR
    fusion.recover("s", 2)  # warm
    assert fusion.code_of("s") is CodeKind.MSR
    fusion.read_stripe("s")[4] = 0
    calls, raised = profiled(lambda: fusion.recover("s", 4))
    assert len(calls) - 1 <= RECOVER_CEILING, calls
    assert raised == []
    assert np.array_equal(fusion.read_stripe("s"), data)


@pytest.mark.parametrize("target", ["msr", "rs"])
def test_one_highway_conversion_is_its_kernel_calls_and_a_few_frames(target):
    fusion = ECFusion(6, 3)
    data = np.random.default_rng(3).integers(0, 256, (6, 4608), dtype=np.uint8)
    tr = fusion.transformer
    stripe = tr.encode(data, "rs" if target == "msr" else "msr")
    source = stripe.kind
    tr.convert(stripe, target)  # warm both edges
    tr.convert(stripe, source)
    calls, raised = profiled(lambda: tr.convert(stripe, target))
    assert len(calls) - 1 <= CONVERT_CEILINGS[target], calls
    assert raised == []
    assert stripe.kind == target
    want = tr.encode(data, target).parity
    assert all(np.array_equal(p, q) for p, q in zip(stripe.parity, want))


def test_one_write_of_a_new_stripe_stays_under_its_ceiling():
    fusion = ECFusion(6, 3)
    data = np.random.default_rng(4).integers(0, 256, (6, 4608), dtype=np.uint8)
    fusion.write("warm", data)
    calls, raised = profiled(lambda: fusion.write("s", data))
    assert len(calls) - 1 <= WRITE_CEILING, calls
    assert raised == []
    assert np.array_equal(fusion.read_stripe("s"), data)


@pytest.mark.parametrize("target", ["msr", "rs"])
def test_one_highway_conversion_is_the_fewest_kernel_calls(target, kernel_calls):
    tr = ECFusion(6, 3).transformer
    data = np.random.default_rng(5).integers(0, 256, (6, 4608), dtype=np.uint8)
    stripe = tr.encode(data, "rs" if target == "msr" else "msr")
    source = stripe.kind
    tr.convert(stripe, target)  # warm both edges
    tr.convert(stripe, source)
    del kernel_calls[:]
    tr.convert(stripe, target)
    assert len(kernel_calls) <= KERNEL_CALLS[target], kernel_calls
    want = tr.encode(data, target).parity
    assert all(np.array_equal(p, q) for p, q in zip(stripe.parity, want))


def test_rs_to_msr_does_the_gf_work_its_algebra_needs(kernel_calls, L=NARROW):
    tr = ECFusion(6, 3).transformer
    data = np.random.default_rng(6).integers(0, 256, (6, L), dtype=np.uint8)
    stripe = tr.encode(data, "rs")
    parity = stripe.parity[0]
    tr.rs_to_msr(data, parity)  # warm
    del kernel_calls[:]
    res = tr.rs_to_msr(data, parity)
    work = sum(units * width for units, width in kernel_calls)
    assert work <= RS_TO_MSR_WORK * L, (work / L, kernel_calls)
    # and it still reads (and reports) one data group and the RS parity
    assert (res.cost.data_blocks_read, res.cost.parity_blocks_read) == (3, 3)
    assert all(np.array_equal(p, q) for p, q in zip(res.parity, tr.encode(data, "msr").parity))


def test_rs_to_msr_on_wide_rows_does_the_same_work(kernel_calls):
    test_rs_to_msr_does_the_gf_work_its_algebra_needs(kernel_calls, WIDE)


@pytest.mark.parametrize("L", [NARROW, WIDE])
def test_msr_to_rs_does_the_gf_work_its_algebra_needs(L, kernel_calls):
    tr = ECFusion(6, 3).transformer
    data = np.random.default_rng(7).integers(0, 256, (6, L), dtype=np.uint8)
    stripe = tr.encode(data, "msr")
    tr.msr_to_rs(stripe.parity)  # warm
    del kernel_calls[:]
    res = tr.msr_to_rs(stripe.parity)
    work = sum(units * width for units, width in kernel_calls)
    assert work <= MSR_TO_RS_WORK[L] * L, (work / L, kernel_calls)
    assert (res.cost.data_blocks_read, res.cost.parity_blocks_read) == (0, 6)
    assert np.array_equal(res.parity, tr.encode(data, "rs").parity[0])


@pytest.mark.parametrize("L", [NARROW, WIDE])
def test_an_msr_encode_does_the_gf_work_its_algebra_needs(L, kernel_calls):
    msr = MSRCode(6, 3)
    data = np.random.default_rng(8).integers(0, 256, (3, L), dtype=np.uint8)
    parity = np.empty((3, L), np.uint8)
    msr.encode(data, out=parity)  # warm
    del kernel_calls[:]
    msr.encode(data, out=parity)
    work = sum(units * width for units, width in kernel_calls)
    assert work <= MSR_ENCODE_WORK[L] * L, (work / L, kernel_calls)
    assert np.array_equal(parity, msr.encode(data)[3:])


@pytest.mark.parametrize("kind", [CodeKind.RS, CodeKind.MSR])
def test_one_write_is_one_kernel_call_per_code_instance(kind, kernel_calls):
    """The write copies each instance's data rows into the stripe in the call
    that computes their parity: no separate copy, no second pass."""
    fusion = ECFusion(6, 3)
    data = np.random.default_rng(9).integers(0, 256, (6, 4608), dtype=np.uint8)
    fusion.write("s", data)
    if kind is CodeKind.MSR:
        for block in range(6):  # recovery-heavy: a write keeps it in MSR
            fusion.recover("s", block)
    fusion.write("s", data)  # warm: compiles the write plans
    del kernel_calls[:]
    fusion.write("s", data[::-1].copy())
    assert fusion.code_of("s") is kind
    instances = 1 if kind is CodeKind.RS else fusion.transformer.q
    assert len(kernel_calls) == instances, kernel_calls
    assert np.array_equal(fusion.read_stripe("s"), data[::-1])
    want = fusion.transformer.encode(data[::-1].copy(), kind.value).parity
    assert all(np.array_equal(p, q) for p, q in zip(fusion._stripes["s"].parity, want))


def test_a_narrow_call_runs_the_dense_units(kernel_calls):
    """At 4,608-byte blocks (512-byte symbol rows) an MSR encode runs its
    dense matrix: a chain's extra scratch rows would cost more there."""
    msr = MSRCode(6, 3)
    data = np.random.default_rng(10).integers(0, 256, (3, 4608), dtype=np.uint8)
    parity = np.empty((3, 4608), np.uint8)
    msr.encode(data, out=parity)  # warm
    del kernel_calls[:]
    msr.encode(data, out=parity)
    assert kernel_calls == [(msr._parity_plan.nnz, 512)]
    assert np.array_equal(parity, msr.encode(data)[3:])
