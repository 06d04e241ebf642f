"""Referee for the quiet-window fast-forward in ``run_workload``.

A closed-loop request that nothing can interleave with is priced in
closed form (``PlanExecutor.price``) and booked as one heap entry.  The
claim is *exactness*, so the referee is the event path itself: every
workload here runs twice — as is, and with ``price`` patched to answer
``None`` (test-only; production has no such switch), which sends every
request down the event path (the ``_Request`` chain) — and the two runs
must agree bit for bit on everything a run produces.

Shown to see by mutation on throw-away copies (``CHANGES.md``, PR 21):
``t + (d1 + d2)`` for ``(t + d1) + d2``, a dropped coordinator-ingest
term, a push site without its guard, and accounting booked at window
open instead of at landing each fail a test below.
"""

import dataclasses
import gc

import pytest

from repro import telemetry
from repro.cluster import cluster as cluster_module
from repro.cluster import events, run_workload
from repro.cluster.client import PlanExecutor
from repro.experiments.runner import SCHEME_ORDER, ExperimentConfig, build_schemes
from repro.telemetry import METRICS, SNAPSHOTS, TRACER
from repro.workloads import NodeFailureEvent, failures_for_trace, make_trace

TRACES = ("mds1", "web1")


@pytest.fixture(autouse=True)
def clean_singletons():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def workload(config, trace_name):
    trace = make_trace(
        trace_name, num_requests=config.num_requests, num_stripes=config.num_stripes,
        blocks_per_stripe=config.k, write_once=True,
    )
    failures = failures_for_trace(
        trace, blocks_per_stripe=config.k, rate=config.failure_rate, seed=config.seed,
        num_stripes=config.num_stripes, spatial_decay=config.spatial_decay,
    )
    return trace, failures


def resource_stats(cluster):
    """Every counter every resource keeps, as text (floats bit-exact)."""
    rows = []
    resources = [r for n in cluster.nodes for r in (n.disk, n.nic, n.cpu)]
    for res in resources + [cluster.client.cpu, cluster.client.nic]:
        rows.append((
            res.name, res.busy_time, res.served, res.queue_depth,
            getattr(res, "bytes_read", None), getattr(res, "bytes_written", None),
            getattr(res, "bytes_moved", None), getattr(res, "ops_done", None),
        ))
    return repr(rows)


@dataclasses.dataclass
class Run:
    result: str
    resources: str
    entries: int
    metrics: dict
    trace: dict
    snapshots: dict


def replay(monkeypatch, scheme, trace, failures, cluster_config=None, *, windows, node_failures=()):
    """One ``run_workload``; ``windows=False`` forces the event path."""
    built = []

    class Recording(cluster_module.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(cluster_module, "Cluster", Recording)
        if not windows:
            patch.setattr(PlanExecutor, "price", lambda *args, **kwargs: None)
        result = run_workload(
            scheme, trace, failures, cluster_config, node_failures=list(node_failures)
        )
    (cluster,) = built
    assert cluster.sim._window is None and cluster.sim._pending == 0
    run = Run(
        result=repr(dataclasses.asdict(result)),
        resources=resource_stats(cluster),
        entries=cluster.sim.events_scheduled,
        metrics=METRICS.export_state(),
        trace=TRACER.export_state(),
        snapshots=SNAPSHOTS.export_state(),
    )
    telemetry.reset()
    return run


def replay_cell(monkeypatch, config, scheme_name, trace_name, **kwargs):
    trace, failures = workload(config, trace_name)
    scheme = build_schemes(config)[scheme_name]
    return replay(monkeypatch, scheme, trace, failures, config.cluster, **kwargs)


def assert_same_run(fast: Run, slow: Run):
    assert fast.result == slow.result
    assert fast.resources == slow.resources
    assert fast.trace == slow.trace
    assert fast.snapshots == slow.snapshots
    depth_fast = fast.metrics.pop("sim.heap_depth", None)
    depth_slow = slow.metrics.pop("sim.heap_depth", None)
    assert repr(fast.metrics) == repr(slow.metrics)
    if depth_slow is not None:  # the one series allowed to read lower
        assert depth_fast["high_water"] <= depth_slow["high_water"]


CONFIG = ExperimentConfig(num_requests=240, num_stripes=40, seed=21)
VARIANTS = {
    "plain": (CONFIG, ()),
    "node-storm": (CONFIG, (NodeFailureEvent(time=0.0, node=3), NodeFailureEvent(time=0.0, node=11))),
    "scheduler": (dataclasses.replace(CONFIG, repair_scheduler=True), ()),
    "scheduler+storm": (
        dataclasses.replace(CONFIG, repair_scheduler=True, seed=5),
        (NodeFailureEvent(time=0.0, node=7),),
    ),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("trace_name", TRACES)
@pytest.mark.parametrize("scheme_name", SCHEME_ORDER)
def test_window_run_equals_event_path_run(monkeypatch, scheme_name, trace_name, variant):
    config, node_failures = VARIANTS[variant]
    runs = [
        replay_cell(
            monkeypatch, config, scheme_name, trace_name, windows=w, node_failures=node_failures
        )
        for w in (True, False)
    ]
    assert_same_run(*runs)
    fast, slow = runs
    assert fast.entries < slow.entries  # windows did open


@pytest.mark.parametrize("snapshots", [False, True])
@pytest.mark.parametrize("trace_name", TRACES)
@pytest.mark.parametrize("scheme_name", SCHEME_ORDER)
def test_metered_window_run_equals_event_path_run(monkeypatch, scheme_name, trace_name, snapshots):
    """Telemetry on: the whole METRICS export, the trace-event sequence
    and (with the daemon sampler ticking through the run, which closes
    every window a tick falls into) the snapshot series."""
    config, node_failures = VARIANTS["scheduler+storm"]
    runs = []
    for w in (True, False):
        telemetry.enable(metrics=True, tracing=True, snapshots=snapshots)
        runs.append(
            replay_cell(
                monkeypatch, config, scheme_name, trace_name, windows=w, node_failures=node_failures
            )
        )
        telemetry.disable()
    assert_same_run(*runs)
    fast, slow = runs
    assert fast.trace["events"] and fast.metrics
    assert fast.entries < slow.entries


def test_unequal_chunks_book_second_hops_in_completion_order(monkeypatch):
    """A plan whose chunks differ in size begins its second hops in
    first-hop completion order; the metered float sums see that order."""
    from repro.hybrid import OpPlan, PlanKind, RSPlanner
    from repro.workloads import OpType, Request, Trace

    class Ragged(RSPlanner):
        def plan_read(self, stripe, block):
            sizes = (3e6 / 7, 1e5 / 3, 2e6 / 3, 1e5 / 3, 5e6 / 7)
            return [
                OpPlan(PlanKind.CONVERSION, compute_ops=1e7 / 3, distributed=True,
                       reads=dict(enumerate(sizes)), writes={5: 1e6 / 3, 0: 1e3 / 7}),
                OpPlan(PlanKind.READ, compute_ops=7e6 / 3, reads=dict(enumerate(reversed(sizes)))),
            ]

    trace = Trace(name="ragged", requests=[
        Request(time=float(i), op=OpType.READ if i % 4 else OpType.WRITE, stripe=i % 3, block=i % 4)
        for i in range(40)
    ])
    runs = []
    for w in (True, False):
        telemetry.enable(metrics=True, tracing=True)
        runs.append(replay(monkeypatch, Ragged(4, 2, 1e6 / 3), trace, [], windows=w))
        telemetry.disable()
    assert_same_run(*runs)
    assert runs[0].entries < 0.5 * runs[1].entries


# -- intrusion ---------------------------------------------------------------

INTRUDERS = ("call_later", "process", "use_cb")


def intruded_run(monkeypatch, windows):
    """Replay with an intruder after each of the first request completions
    (``_Replay.request_done``, every request chain's last step): it runs
    right after the stream resumed (and opened a window for the next
    request) and pushes a same-instant entry.

    Request 0 takes the event path in any run (the recovery jobs' start
    entries are pending), and an intruded window falls back to it, so
    "the first few completions" names the same requests on both sides.
    """
    config = dataclasses.replace(CONFIG, num_requests=60)
    built, intrusions, finishes = [], [], [0]

    class Recording(cluster_module.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def noop(_=None):
        pass

    def idle():
        return
        yield

    def intrude(kind):
        cluster = built[0]
        sim = cluster.sim
        opened = sim._window
        before = resource_stats(cluster)
        if kind == "call_later":
            sim.call_later(0.0, noop)
        elif kind == "process":
            sim.process(idle())
        else:  # a hold on every disk: whatever the request reads, it queues
            for node in cluster.nodes:
                node.disk.use_cb(0.05, noop)
        if opened is not None:
            intrusions.append(kind)
            assert sim._window is None
            assert opened[1] not in sim._heap  # the landing entry is gone ...
            if kind != "use_cb":
                assert resource_stats(cluster) == before  # ... and booked nothing

    finish = cluster_module._Replay.request_done

    def finish_with_intruder(replay):
        finish(replay)
        if finishes[0] < 9:
            intrude(INTRUDERS[finishes[0] % 3])
            finishes[0] += 1

    trace, failures = workload(config, "web1")
    with monkeypatch.context() as patch:
        patch.setattr(cluster_module, "Cluster", Recording)
        patch.setattr(cluster_module._Replay, "request_done", finish_with_intruder)
        if not windows:
            patch.setattr(PlanExecutor, "price", lambda *args, **kwargs: None)
        result = run_workload(build_schemes(config)["EC-Fusion"], trace, failures, config.cluster)
    (cluster,) = built
    assert finishes[0] == 9
    return repr(dataclasses.asdict(result)), resource_stats(cluster), intrusions


def test_intruded_window_falls_back_to_the_event_path(monkeypatch):
    fast_result, fast_resources, intrusions = intruded_run(monkeypatch, windows=True)
    slow_result, slow_resources, none = intruded_run(monkeypatch, windows=False)
    assert set(intrusions) == set(INTRUDERS)  # each push site closed a window
    assert none == []
    assert fast_result == slow_result
    assert fast_resources == slow_resources


def test_window_records_die_by_refcount_alone(monkeypatch):
    """``Simulator.run`` pauses the cyclic GC (see
    ``test_finished_requests_die_by_refcount_alone``): a window record
    must not reference itself, and the callback chain that replaced the
    stream generator must not keep a finished run's cluster alive."""

    class Record(tuple):
        pass

    booked = [0]
    call_at = events.Simulator.call_at

    def recording_call_at(self, t, fn, arg=None):
        booked[0] += 1
        return call_at(self, t, fn, Record(arg))

    monkeypatch.setattr(events.Simulator, "call_at", recording_call_at)
    trace, failures = workload(CONFIG, "mds1")
    scheme = build_schemes(CONFIG)["EC-Fusion"]
    gc.collect()
    gc.disable()
    try:
        result = run_workload(scheme, trace, failures, CONFIG.cluster)
        alive = [o for o in gc.get_objects() if isinstance(o, Record)]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert len(result.app_latencies) == CONFIG.num_requests
    assert booked[0] > CONFIG.num_requests // 2
    assert alive == []
    assert garbage == 0


# -- the kernel's side of the contract -----------------------------------------


def _idle(order):
    order.append("intruder")
    return
    yield


PUSH_SITES = {
    "call_later": lambda sim, res, order: sim.call_later(0.0, order.append, "intruder"),
    "call_at": lambda sim, res, order: sim.call_at(sim.now, order.append, "intruder"),
    "timeout": lambda sim, res, order: sim.timeout(0.0).wait(lambda _: order.append("intruder")),
    "process": lambda sim, res, order: sim.process(_idle(order)),
    "use_cb": lambda sim, res, order: res.use_cb(0.0, order.append, "intruder"),
    "acquire": lambda sim, res, order: res.acquire().wait(lambda _: order.append("intruder")),
    "release": lambda sim, res, order: res.release(),  # grants the queued waiter
}


@pytest.mark.parametrize("site", sorted(PUSH_SITES))
def test_every_push_site_closes_an_open_window_first(site):
    """Whoever pushes while a window is open finds the landing entry
    withdrawn and the owner's fall-back entry numbered before their own."""
    sim = events.Simulator()
    res = events.FIFOResource(sim, "disk0")
    order = []
    if site == "release":  # a held server with one waiter behind it, nothing scheduled
        res.acquire()
        res.use_cb(0.0, order.append, "intruder")
        assert sim.step() and sim._pending == 0
    entry = sim.call_at(5.0, order.append, "landing")
    sim._window = (lambda arg: sim.call_later(0.0, order.append, "fallback of " + arg), entry)
    PUSH_SITES[site](sim, res, order)
    assert sim._window is None
    assert entry not in sim._heap
    sim.run()
    assert order == ["fallback of landing", "intruder"]
    assert sim.now == 0.0  # the withdrawn entry did not move the clock


def test_price_declines_what_it_cannot_say():
    from repro.cluster import Cluster, ClusterConfig
    from repro.hybrid import OpPlan, PlanKind

    cluster = Cluster(ClusterConfig(num_nodes=6), width=4)
    executor, sim = cluster.executor, cluster.sim
    cpu, nic = cluster.client.cpu, cluster.client.nic
    info = cluster.namenode.lookup("s")
    plan = OpPlan(PlanKind.READ, compute_ops=1e6, reads={0: 1e6, 1: 2e6}, writes={2: 1e6})

    def price():
        return executor.price(plan, info, cpu, nic, sim.now)

    before = resource_stats(cluster)
    landing, holds = price()
    assert landing > 0 and len(holds) == 2 * 2 + 1 + 1 + 1 + 2
    assert resource_stats(cluster) == before  # pricing books nothing ...
    executor.book(holds)
    assert resource_stats(cluster) != before  # ... booking does

    node = cluster.nodes[info.placement[1]]
    node.fail()
    assert price() is None  # a dead node (the event path raises DeadNodeError)
    node.restore()
    node.disk.use_cb(1.0, lambda _: None)
    assert price() is None  # a resource in service: the hold would queue
    sim.run()
    assert price() is not None
    info.placement[2] = info.placement[0]
    assert price() is not None  # the same node in two *phases* is sequential
    info.placement[1] = info.placement[0]
    assert price() is None  # two chunks of one fan-out on one node
    info.placement[1] = node.node_id
    for attached in ("chaos", "fabric"):
        setattr(executor, attached, object())
        assert price() is None
        setattr(executor, attached, None)
    assert price() is not None


def test_daemon_due_now_sees_the_planner_before_the_next_request(monkeypatch):
    """A daemon entry due at the very instant the stream resumes fires
    before the next request's start entry on the event path, so it must
    see the planner as it was *before* that request was planned."""
    from repro.hybrid import RSPlanner

    class Counting(RSPlanner):
        planned = 0

        def plan_read(self, stripe, block):
            self.planned += 1
            return super().plan_read(stripe, block)

        def plan_write(self, stripe):
            self.planned += 1
            return super().plan_write(stripe)

    config = dataclasses.replace(CONFIG, num_requests=40)
    trace = workload(config, "web1")[0]
    telemetry.enable(tracing=True)
    run_workload(Counting(8, 3, config.gamma), trace, [], config.cluster)
    landings = [ev.ts for ev in TRACER.events if ev.kind == "request"]
    telemetry.disable()
    telemetry.reset()
    probed = range(5, 30, 3)
    scheme, seen = Counting(8, 3, config.gamma), []

    class Probed(cluster_module.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sim = self.sim

            def arm(at):  # shortly before the landing: numbered after its last hold began
                assert sim.now + (at - sim.now) == at
                sim.call_later(at - sim.now, probe, at, daemon=True)

            def probe(at):
                assert sim.now == at
                seen.append(scheme.planned)

            for j in probed:
                sim.call_later(landings[j] - 1e-5, arm, landings[j], daemon=True)

    monkeypatch.setattr(cluster_module, "Cluster", Probed)
    result = run_workload(scheme, trace, [], config.cluster)
    assert len(result.app_latencies) == 40
    assert seen == [j + 1 for j in probed]  # requests 0..j planned, j+1 not yet
