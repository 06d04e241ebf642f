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

import sys

import numpy as np
import pytest

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
#: (measured: 8 and 6; 24 and 20 before, 69 and 51 before that)
CONVERT_CEILINGS = {"msr": 9, "rs": 7}
#: ... and of one ``ECFusion.write`` of a new stripe (measured: 10; 17
#: before, 39 before that)
WRITE_CEILING = 11
#: kernel calls of one fault-free conversion at (6, 3) on each highway edge:
#: RS → MSR encodes the group it reads, derives the other's p′ in one call
#: (eq. (3)) and maps it through Trans2; MSR → RS merges both groups'
#: Trans1 in one call (3 and 2 before)
KERNEL_CALLS = {"msr": 3, "rs": 1}
#: GF work of one RS → MSR conversion at (6, 3), in multiples of the block
#: length: the MSR encoder on the group read (25), [B_0 | I] (12) and one
#: Trans2 (45) — 99 before, when the group read went through B_0 and Trans2
RS_TO_MSR_WORK = 82


@pytest.fixture(autouse=True)
def _native_path(monkeypatch):
    monkeypatch.delenv("REPRO_GF_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_GF_NATIVE", raising=False)
    if native_info().get("entry") != "fastcall":
        pytest.skip(f"the budget is the fastcall entry's: {native_info()}")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call of the kernel entry from here on, as ``(units, width)``."""
    calls = []
    real, info = native._cached[0]

    def entry(*args):
        head, _, _, out, _ = args
        calls.append((head[4], out.shape[1]))
        return real(*args)

    monkeypatch.setattr(native, "_cached", [(entry, info)])
    return calls


def profiled(fn):
    """Run ``fn()`` → (Python-level calls, exception types raised inside)."""
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


def test_rs_to_msr_does_the_gf_work_its_algebra_needs(kernel_calls):
    L = 4608
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
