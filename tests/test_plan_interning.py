"""Plans are data built once, and a campaign request costs a few frames.

Every planner hands out one shared, read-only :class:`OpPlan` per shape —
a read of slot ``b``, the write of a family, the recovery of ``(family,
slot)`` and its write-less degraded twin, each conversion edge, HACFS's
up- and downcode — and the object store one degraded fan-out plan per
pattern of lost slots.  Sharing is only safe because nobody can change a
plan: ``reads`` / ``writes`` are read-only mappings and the byte totals
are fixed at construction.

The second half gates what one closed-loop campaign request costs the
interpreter, in Python-level calls (a pure function of the code, like
``tests/test_gf_call_budget.py`` one layer down): per request, priced in a
quiet window and on the event path, measured as the difference between
runs of 40 and 20 identical requests so that set-up cancels out.
"""

import sys

import pytest

from repro.cluster import ClusterConfig, run_workload
from repro.cluster.client import PlanExecutor
from repro.fusion.costmodel import SystemProfile
from repro.hybrid import (
    ECFusionPlanner,
    HACFSPlanner,
    LRCPlanner,
    MSRPlanner,
    MultiCodePlanner,
    OpPlan,
    PlanKind,
    RSPlanner,
)
from repro.server import ObjectStore, ServerConfig
from repro.workloads import OpType, Request, Trace

GAMMA = 64 * 1024.0

PLANNERS = {
    "RS": lambda: RSPlanner(8, 3, GAMMA),
    "MSR": lambda: MSRPlanner(8, 3, GAMMA),
    "LRC": lambda: LRCPlanner(8, 2, 2, GAMMA),
    "HACFS": lambda: HACFSPlanner(8, GAMMA, hot_capacity=4),
    "EC-Fusion": lambda: ECFusionPlanner(8, 3, GAMMA, queue_capacity=4),
    "Policy": lambda: MultiCodePlanner(8, 3, GAMMA, queue_capacity=4),
}


def exercise(planner):
    """A stream that writes, reads, repairs, degrades and converts; returns
    every plan handed out, grouped by the call that produced it."""
    out = []
    for rnd in range(6):
        for stripe in range(8):
            block = (stripe + rnd) % 8
            out.append(("write", planner.plan_write(stripe)))
            out.append(("read", planner.plan_read(stripe, block)))
            out.append(("read", planner.plan_read(stripe, block)))
            out.append(("recovery", planner.plan_recovery(stripe, block)))
            out.append(("degraded", planner.plan_degraded_read(stripe, block)))
    return out


def shape(plan):
    return (
        plan.kind, plan.compute_ops, tuple(sorted(plan.reads.items())),
        tuple(sorted(plan.writes.items())), plan.distributed,
    )


@pytest.mark.parametrize("name", sorted(PLANNERS))
def test_one_shape_is_one_object(name):
    planner = PLANNERS[name]()
    seen: dict = {}
    plans = [plan for _, emitted in exercise(planner) for plan in emitted]
    for plan in plans:
        assert seen.setdefault(shape(plan), plan) is plan
    assert len(plans) > 4 * len(seen)  # the stream repeats shapes
    conversions = [p for p in plans if p.kind is PlanKind.CONVERSION]
    if name in ("HACFS", "EC-Fusion", "Policy"):
        assert conversions  # the stream reached the conversion edges


def test_the_same_call_returns_the_same_plan():
    for name, make in PLANNERS.items():
        planner = make()
        planner.plan_write(0)
        assert planner.plan_read(0, 3)[-1] is planner.plan_read(0, 3)[-1], name
        assert planner.plan_read(0, 3)[-1] is not planner.plan_read(0, 4)[-1], name
        assert planner.plan_write(1)[-1] is planner.plan_write(2)[-1], name
        assert planner.plan_recovery(1, 5)[-1] is planner.plan_recovery(1, 5)[-1], name
        twin = planner.plan_degraded_read(1, 5)[-1]
        assert twin is planner.plan_degraded_read(1, 5)[-1], name
        assert not twin.writes and twin.reads == planner.plan_recovery(1, 5)[-1].reads


def test_a_fresh_recovery_plan_gets_a_fresh_twin():
    """Only the planner's own interned plans share a twin: a subclass that
    builds its recovery plans itself gets a correct one every time."""

    class Fresh(RSPlanner):
        def plan_recovery(self, stripe, block):
            return [OpPlan(PlanKind.RECOVERY, compute_ops=1.0, reads={0: 2.0}, writes={block: 3.0})]

    planner = Fresh(8, 3, GAMMA)
    a, b = planner.plan_degraded_read(0, 1)[0], planner.plan_degraded_read(0, 2)[0]
    assert a is not b and a.reads == {0: 2.0} and not a.writes
    assert planner._degraded == {}


@pytest.mark.parametrize("name", sorted(PLANNERS))
def test_interned_plans_are_read_only(name):
    for _, emitted in exercise(PLANNERS[name]()):
        for plan in emitted:
            with pytest.raises(TypeError):
                plan.reads[0] = 1.0
            with pytest.raises(TypeError):
                plan.writes[99] = 1.0
            with pytest.raises(AttributeError):
                plan.compute_ops = 0.0


def test_a_plan_copies_the_mappings_it_is_given():
    reads = {0: 1.0, 1: 2.5}
    plan = OpPlan(PlanKind.READ, reads=reads)
    reads[2] = 7.0
    assert plan.reads == {0: 1.0, 1: 2.5} and plan.bytes_read == 3.5


@pytest.mark.parametrize("name", sorted(PLANNERS))
def test_totals_are_the_sums(name):
    for _, emitted in exercise(PLANNERS[name]()):
        for plan in emitted:
            assert plan.bytes_read == sum(plan.reads.values())
            assert plan.bytes_written == sum(plan.writes.values())
            assert plan.transfer_bytes == plan.bytes_read + plan.bytes_written


def test_the_store_builds_one_fan_out_per_lost_pattern():
    store = ObjectStore(ServerConfig(scheme="RS"))
    full = store._partial_read([])
    assert full[0] == [0, 1, 2, 3]
    healthy, fanout = store._partial_read([1, 3])
    assert healthy == [0, 2] and fanout.reads == {0: store.config.chunk_size, 2: store.config.chunk_size}
    assert store._partial_read([1, 3])[1] is fanout
    assert store._partial_read([1])[1] is not fanout
    with pytest.raises(TypeError):
        fanout.reads[1] = 0.0
    assert fanout.bytes_read == sum(fanout.reads.values())


# -- what one campaign request costs the interpreter ---------------------------

#: Python-level calls of one closed-loop RS read (measured: 23 priced in a
#: quiet window, 52 on the event path; 26 and 78 before plans were interned
#: and requests were callback chains)
CEILINGS = {"window": 24, "event": 56}


def calls_per_request(path: str) -> float:
    def calls(n):
        trace = Trace("same", [
            Request(time=float(i), op=OpType.READ, stripe=0, block=1) for i in range(n)
        ])
        scheme = RSPlanner(8, 3, GAMMA)
        config = ClusterConfig(num_nodes=12, profile=SystemProfile(gamma=GAMMA))
        count = [0]

        def profiler(frame, event, arg):
            if event == "call":
                count[0] += 1

        sys.setprofile(profiler)
        try:
            result = run_workload(scheme, trace, [], config)
        finally:
            sys.setprofile(None)
        assert len(result.read_latencies) == n
        return count[0]

    return (calls(40) - calls(20)) / 20


@pytest.mark.parametrize("path", sorted(CEILINGS))
def test_one_campaign_request_stays_under_its_call_ceiling(monkeypatch, path):
    if path == "event":  # every request down the event path
        monkeypatch.setattr(PlanExecutor, "price", lambda *args, **kwargs: None)
    per_request = calls_per_request(path)
    assert per_request == int(per_request)  # identical requests, identical cost
    assert per_request <= CEILINGS[path]
