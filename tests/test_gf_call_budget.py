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
"""

import sys

import numpy as np
import pytest

from repro.fusion import CodeKind, ECFusion
from repro.gf import CodingPlan, native_info, systematic_rs_parity

#: Python-level calls of one warm native ``apply_into`` (measured: 13;
#: 27 before the fastcall entry)
APPLY_CEILING = 16
#: ... and of one ``ECFusion.recover`` on a stripe already in MSR form
#: (measured: 49; 73 before)
RECOVER_CEILING = 52


@pytest.fixture(autouse=True)
def _native_path(monkeypatch):
    monkeypatch.delenv("REPRO_GF_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_GF_NATIVE", raising=False)
    if native_info().get("entry") != "fastcall":
        pytest.skip(f"the budget is the fastcall entry's: {native_info()}")


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
