"""Golden plan digests: every planner's emitted plans are pinned.

The campaign golden digest (``test_chaos_golden.py``) sees five schemes on
one 120-request trace and never touches ``FRPlanner``,
``MultiCodePlanner`` or ``plan_parity_recovery``.  This module pins the
planners themselves: each of the seven (plus EC-Fusion's idle-expiry
variant) is driven through one seeded 2,000-op stream of write / read /
recover / degraded-read operations at k ∈ {6, 8}, r = 3, γ ∈ {64 KiB,
27 MiB}, and every emitted :class:`~repro.hybrid.plans.OpPlan` is hashed.

What is hashed, and how exactly:

* per plan — ``kind``, ``compute_ops``, the sorted ``reads`` and ``writes``
  and ``distributed``, floats as packed little-endian doubles: these feed
  simulated time (compute through α, bytes through λ and the disks), so a
  one-ulp change is a behaviour change;
* once per cell — :attr:`CostModel.eta` as a packed double;
* at the end of the stream — ``storage_overhead()`` and ``stats()`` at 12
  significant digits.  These are means over the stripe population (ρ̄,
  per-family shares); the order in which such a mean is summed is not part
  of the plan contract, the values are.

Parity-chunk recoveries are driven on the EC-Fusion cells only — the one
planner that planned them when the constants were recorded — so that the
other op streams do not depend on which planners grow the method later.

The constants were recorded at commit 5c18bbd (the parent of the PR that
collapsed the planners onto the code-family table).  A refactor must
reproduce them; re-record only for an intended, explained plan change.
"""

import hashlib
import random
import struct

import pytest

from repro.fusion.adaptation import CodeKind
from repro.fusion.costmodel import CostModel, SystemProfile
from repro.hybrid import (
    ECFusionPlanner,
    FRPlanner,
    HACFSPlanner,
    LRCPlanner,
    MSRPlanner,
    MultiCodePlanner,
    RSPlanner,
)

R = 3
OPS = 2000
STRIPES = 48
GAMMAS = {"64KiB": 64 * 1024.0, "27MiB": 27 * 1024 * 1024.0}

PLANNERS = {
    "RS": lambda k, g: RSPlanner(k, R, g),
    "MSR": lambda k, g: MSRPlanner(k, R, g),
    "LRC": lambda k, g: LRCPlanner(k, 2, 2, g),
    "FR": lambda k, g: FRPlanner(k, k + 1, g),
    "HACFS": lambda k, g: HACFSPlanner(k, g, hot_capacity=10),
    "EC-Fusion": lambda k, g: ECFusionPlanner(k, R, g, queue_capacity=10),
    "EC-Fusion/idle": lambda k, g: ECFusionPlanner(
        k, R, g, queue_capacity=16, margin=0.05, idle_window=40
    ),
    "Policy": lambda k, g: MultiCodePlanner(k, R, g, queue_capacity=10),
}

#: sha256 (first 16 hex digits) per (planner, k, γ) cell — see module docstring
GOLDEN = {
    ('RS', 6, '64KiB'): 'bf41a6394a468240',
    ('RS', 6, '27MiB'): '7a47d4c1a97cfa3a',
    ('RS', 8, '64KiB'): 'e0042af49f26e1b1',
    ('RS', 8, '27MiB'): '55cb0c7fbc9e2f62',
    ('MSR', 6, '64KiB'): 'cd634606ee908ba9',
    ('MSR', 6, '27MiB'): 'a897e43f782623d3',
    ('MSR', 8, '64KiB'): 'cd1ec297b0041096',
    ('MSR', 8, '27MiB'): 'cb22964f7352cdf7',
    ('LRC', 6, '64KiB'): '868cfa29732eb16d',
    ('LRC', 6, '27MiB'): 'd00b9d6a43ae97ce',
    ('LRC', 8, '64KiB'): 'b2fb7c070b6d97fb',
    ('LRC', 8, '27MiB'): '16820bd020eda6d2',
    ('FR', 6, '64KiB'): 'a248ce2c9f6c6c4e',
    ('FR', 6, '27MiB'): 'f7991f2f08fc1236',
    ('FR', 8, '64KiB'): '043d820a5bdc0ddb',
    ('FR', 8, '27MiB'): '8be5c400ac2fdc4c',
    ('HACFS', 6, '64KiB'): 'bafb63c0c0a665f6',
    ('HACFS', 6, '27MiB'): '0260e0e8058cfeb1',
    ('HACFS', 8, '64KiB'): '6716d93709122034',
    ('HACFS', 8, '27MiB'): '8ec952dcf41f2008',
    ('EC-Fusion', 6, '64KiB'): 'ac5d15c3b7844e39',
    ('EC-Fusion', 6, '27MiB'): 'b11cfcaff5ab810f',
    ('EC-Fusion', 8, '64KiB'): '021b5072e09938ca',
    ('EC-Fusion', 8, '27MiB'): '36bec2c3e3862d49',
    ('EC-Fusion/idle', 6, '64KiB'): '33d8a293e46d07b5',
    ('EC-Fusion/idle', 6, '27MiB'): 'e63732634e303e27',
    ('EC-Fusion/idle', 8, '64KiB'): '41ed2fa5c18e432a',
    ('EC-Fusion/idle', 8, '27MiB'): '2d12db83e00d1a3d',
    ('Policy', 6, '64KiB'): '8539eb5957cff74d',
    ('Policy', 6, '27MiB'): '99ec5ef8c38e1731',
    ('Policy', 8, '64KiB'): '907dc8ce464ae53f',
    ('Policy', 8, '27MiB'): '52fb91abe45a4770',
}


def _text(value) -> bytes:
    if isinstance(value, float):
        value = f"{value:.12g}"
    return str(value).encode()


def _hash_plans(h, plans) -> None:
    for plan in plans:
        h.update(plan.kind.value.encode())
        h.update(struct.pack("<d?", plan.compute_ops, plan.distributed))
        for traffic in (plan.reads, plan.writes):
            h.update(struct.pack("<q", len(traffic)))
            for slot, nbytes in sorted(traffic.items()):
                h.update(struct.pack("<qd", slot, nbytes))


def plan_digest(name: str, k: int, gamma: float) -> str:
    planner = PLANNERS[name](k, gamma)
    rng = random.Random(f"{name}/{k}/{gamma}")
    h = hashlib.sha256()
    h.update(struct.pack("<d", CostModel(k, R, SystemProfile(gamma=gamma)).eta))
    ops = ["write", "read", "recover", "degraded"]
    weights = [35, 30, 22, 8]
    if name.startswith("EC-Fusion"):
        ops.append("parity")
        weights.append(5)
    q = -(-k // R)
    for _ in range(OPS):
        op = rng.choices(ops, weights)[0]
        # a skewed stripe popularity so queues fill, evict and re-admit
        stripe = min(int(rng.expovariate(1 / 9.0)), STRIPES - 1)
        block = rng.randrange(k)
        h.update(op.encode())
        if op == "write":
            plans = planner.plan_write(stripe)
        elif op == "read":
            plans = planner.plan_read(stripe, block)
        elif op == "recover":
            plans = planner.plan_recovery(stripe, block)
        elif op == "degraded":
            plans = planner.plan_degraded_read(stripe, block)
        else:
            msr = planner.code_of(stripe) is CodeKind.MSR
            index = rng.randrange(q * R if msr else R)
            try:
                plans = planner.plan_parity_recovery(stripe, index)
            except ValueError:  # idle expiry reverted the stripe mid-call
                h.update(b"out-of-range")
                continue
        _hash_plans(h, plans)
    h.update(_text(planner.storage_overhead()))
    if hasattr(planner, "stats"):
        for key, value in sorted(planner.stats().items()):
            h.update(_text(key) + b"=" + _text(value))
    return h.hexdigest()[:16]


CELLS = [(name, k, label) for name in PLANNERS for k in (6, 8) for label in GAMMAS]


@pytest.mark.parametrize("name,k,label", CELLS)
def test_plan_digest_matches_parent(name, k, label):
    assert plan_digest(name, k, GAMMAS[label]) == GOLDEN[(name, k, label)]


def test_streams_exercise_conversions():
    """The pinned streams are not vacuous: adaptive planners convert."""
    for name in ("HACFS", "EC-Fusion", "EC-Fusion/idle", "Policy"):
        planner = PLANNERS[name](8, GAMMAS["64KiB"])
        rng = random.Random(7)
        for _ in range(400):
            stripe = min(int(rng.expovariate(1 / 9.0)), STRIPES - 1)
            if rng.random() < 0.5:
                planner.plan_write(stripe)
            else:
                planner.plan_recovery(stripe, rng.randrange(8))
        assert planner.conversion_count > 0, name


if __name__ == "__main__":  # prints the GOLDEN block for (re-)recording
    for cell in CELLS:
        print(f"    {cell!r}: {plan_digest(cell[0], cell[1], GAMMAS[cell[2]])!r},")
