"""Tests for the serving layer: object store, async façade, load generator.

The SLO-critical properties pinned here:

* seeded workloads replay byte-identically (arrival schedule and the
  full serving result);
* open-loop latency is measured from the *intended* arrival time, so a
  saturated run shows the queueing delay a closed-loop driver would hide
  (the coordinated-omission regression test);
* degraded reads complete — riding an in-flight repair when one exists,
  reconstructing around a partitioned or dead node otherwise.
"""

import asyncio
import json

import pytest

from repro.chaos import ChaosConfig
from repro.chaos.engine import ChaosEngine
from repro.server import (
    AsyncObjectStore,
    ObjectStore,
    ServerConfig,
    WorkloadSpec,
    generate_arrivals,
    run_serving,
)


def drive(store, gen):
    """Run one store operation to completion on the store's simulator."""
    proc = store.sim.process(gen)
    store.sim.run()
    assert proc.triggered
    if proc.exc is not None:
        raise proc.exc
    return proc.value


# ---------------------------------------------------------------- object store
class TestObjectStore:
    def test_put_get_delete_roundtrip(self):
        store = ObjectStore(ServerConfig(), seed=0)
        put = drive(store, store.put_op("a", 512 * 1024))
        assert put["latency"] > 0
        assert "a" in store.objects
        got = drive(store, store.get_op("a"))
        assert got["latency"] > 0
        assert not got["degraded"]
        deleted = drive(store, store.delete_op("a"))
        assert deleted["latency"] > 0
        assert "a" not in store.objects

    def test_object_model_stripes_scale_with_size(self):
        cfg = ServerConfig()
        store = ObjectStore(cfg, seed=0)
        drive(store, store.put_op("small", cfg.stripe_bytes / 2))
        drive(store, store.put_op("big", 3.5 * cfg.stripe_bytes))
        assert len(store.objects["small"].stripes) == 1
        assert len(store.objects["big"].stripes) == 4

    def test_overwrite_allocates_fresh_stripes(self):
        store = ObjectStore(ServerConfig(), seed=0)
        drive(store, store.put_op("a"))
        old = store.objects["a"].stripes
        # a lost chunk of the old generation must not haunt the new one
        store.failed_blocks.add((old[0], 0))
        drive(store, store.put_op("a"))
        new = store.objects["a"].stripes
        assert set(old).isdisjoint(new)
        assert not store.failed_blocks

    def test_missing_key_raises(self):
        store = ObjectStore(ServerConfig(), seed=0)
        with pytest.raises(KeyError):
            drive(store, store.get_op("ghost"))
        with pytest.raises(KeyError):
            drive(store, store.delete_op("ghost"))

    def test_preload_registers_without_simulated_time(self):
        store = ObjectStore(ServerConfig(), seed=0)
        keys = store.preload(5)
        assert len(keys) == 5 and store.sim.now == 0.0
        got = drive(store, store.get_op(keys[3]))
        assert not got["degraded"]

    def test_degraded_get_without_repair_reconstructs(self):
        store = ObjectStore(ServerConfig(), seed=0)
        (key,) = store.preload(1)
        stripe = store.objects[key].stripes[0]
        store.failed_blocks.add((stripe, 1))
        got = drive(store, store.get_op(key))
        assert got["degraded"] and got["piggybacked"] == 0
        assert store.stats["degraded_reads"] == 1

    def test_degraded_get_rides_inflight_repair(self):
        # RS: plan_recovery has no conversion prologue, so the repair is
        # submitted (and rideable) the instant the process first runs
        store = ObjectStore(ServerConfig(scheme="RS"), seed=0)
        (key,) = store.preload(1)
        stripe = store.objects[key].stripes[0]
        store.failed_blocks.add((stripe, 0))
        store.sim.process(store._repair(stripe, 0))
        got = drive(store, store.get_op(key))
        assert got["degraded"] and got["piggybacked"] == 1
        assert store.stats["piggybacked_reads"] == 1
        assert store.stats["repairs"] == 1
        assert (stripe, 0) not in store.failed_blocks

    def test_failure_injector_is_tolerance_bounded(self):
        cfg = ServerConfig(failure_rate=50.0)
        store = ObjectStore(cfg, seed=3)
        store.preload(4)
        store.start_failure_injector()

        def foreground():
            for _ in range(30):
                yield store.sim.timeout(0.05)

        store.sim.process(foreground())
        store.sim.run()
        assert store.stats["chunk_failures"] > 0
        # never more erasures on one stripe than the code tolerates
        per_stripe = {}
        for s, _b in store.failed_blocks:
            per_stripe[s] = per_stripe.get(s, 0) + 1
        assert all(count <= cfg.r for count in per_stripe.values())

    def test_get_reconstructs_around_dead_node(self):
        # RS degraded reads touch only surviving slots; adaptive schemes
        # may plan a conversion that needs the dark node (an honest failed
        # request in the serving loop, not a unit-testable reconstruction)
        store = ObjectStore(ServerConfig(scheme="RS"), seed=0)
        (key,) = store.preload(1)
        stripe = store.objects[key].stripes[0]
        placement = store.cluster.namenode.lookup(stripe).placement
        store.cluster.nodes[placement[0]].alive = False
        got = drive(store, store.get_op(key))
        assert got["degraded"]


# --------------------------------------------------------------- async façade
class TestAsyncObjectStore:
    def test_await_roundtrip(self):
        async def main():
            a = AsyncObjectStore(ObjectStore(ServerConfig(), seed=1))
            await a.put("x")
            got = await a.get("x")
            await a.delete("x")
            return got

        got = asyncio.run(main())
        assert got["latency"] > 0 and not got["degraded"]

    def test_concurrent_awaits_overlap_in_sim_time(self):
        async def sequential():
            a = AsyncObjectStore(ObjectStore(ServerConfig(), seed=1))
            for i in range(4):
                await a.put(f"k{i}")
            return a.sim.now

        async def concurrent():
            a = AsyncObjectStore(ObjectStore(ServerConfig(), seed=1))
            await asyncio.gather(*(a.put(f"k{i}") for i in range(4)))
            return a.sim.now

        seq = asyncio.run(sequential())
        par = asyncio.run(concurrent())
        assert par < seq  # gather genuinely overlaps the puts

    def test_missing_key_raises_through_await(self):
        async def main():
            a = AsyncObjectStore(ObjectStore(ServerConfig(), seed=1))
            await a.get("ghost")

        with pytest.raises(KeyError):
            asyncio.run(main())


# ------------------------------------------------------------- load generator
class TestArrivals:
    def test_seeded_schedule_is_byte_identical(self):
        spec = WorkloadSpec(target_ops=150, duration=4.0, seed=9)
        a1 = generate_arrivals(spec)
        a2 = generate_arrivals(spec)
        assert a1 == a2
        blob1 = json.dumps([(a.time, a.op, a.rank) for a in a1], sort_keys=True)
        blob2 = json.dumps([(a.time, a.op, a.rank) for a in a2], sort_keys=True)
        assert blob1 == blob2

    def test_different_seeds_differ(self):
        base = WorkloadSpec(target_ops=150, duration=4.0, seed=9)
        other = WorkloadSpec(target_ops=150, duration=4.0, seed=10)
        assert generate_arrivals(base) != generate_arrivals(other)

    def test_rate_and_mix_are_honoured(self):
        spec = WorkloadSpec(
            target_ops=400, duration=10.0, read_fraction=0.8, seed=1
        )
        arrivals = generate_arrivals(spec)
        assert len(arrivals) == pytest.approx(4000, rel=0.1)
        reads = sum(1 for a in arrivals if a.op == "get")
        assert reads / len(arrivals) == pytest.approx(0.8, abs=0.03)
        assert all(0 <= a.time < spec.duration for a in arrivals)
        assert all(a.rank < spec.num_objects for a in arrivals)

    def test_zipfian_skews_and_uniform_does_not(self):
        zipf = generate_arrivals(
            WorkloadSpec(target_ops=500, duration=10.0, distribution="zipfian", seed=2)
        )
        unif = generate_arrivals(
            WorkloadSpec(target_ops=500, duration=10.0, distribution="uniform", seed=2)
        )

        def share_of_rank0(arrivals):
            return sum(1 for a in arrivals if a.rank == 0) / len(arrivals)

        # zipfian(0.99) over 64 keys puts >15% of traffic on the hottest key
        assert share_of_rank0(zipf) > 0.15
        assert share_of_rank0(unif) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(target_ops=0)
        with pytest.raises(ValueError):
            WorkloadSpec(distribution="pareto")
        with pytest.raises(ValueError):
            WorkloadSpec(read_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(mode="half-open")


class TestServing:
    def test_seeded_run_replays_byte_identically(self):
        spec = WorkloadSpec(target_ops=150, duration=2.0, seed=11)
        cfg = ServerConfig(failure_rate=1.0)
        r1 = run_serving(spec, cfg)
        r2 = run_serving(spec, cfg)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
        )

    def test_serving_section_shape(self):
        spec = WorkloadSpec(target_ops=100, duration=1.0, seed=5)
        section = run_serving(spec).to_dict()
        assert section["offered"] > 0
        assert section["completed"] == section["offered"]
        for op in ("get", "put", "degraded_read", "repair"):
            for stat in ("count", "mean", "p50", "p99", "p999", "max"):
                assert stat in section["latency"][op]
        assert section["workload"]["distribution"] == "zipfian"
        assert run_serving(spec).render()  # the table renders

    def test_open_loop_latency_counts_queueing(self):
        """The coordinated-omission regression test.

        One shared connection under 2x-capacity offered load: an
        open-loop driver keeps sending on schedule, so late requests
        must show the queueing delay from their *intended* arrival.  A
        closed-loop driver with one worker self-throttles over the very
        same schedule and reports only per-request service time —
        silently omitting the backlog.  If open-loop latency ever stops
        dwarfing closed-loop latency here, arrival-time accounting broke.
        """
        base = dict(
            target_ops=220.0,
            duration=2.0,
            read_fraction=1.0,
            connections=1,
            seed=4,
        )
        open_res = run_serving(WorkloadSpec(mode="open", **base))
        closed_res = run_serving(WorkloadSpec(mode="closed", workers=1, **base))
        assert open_res.offered == closed_res.offered
        open_p99 = open_res.percentile("get", 0.99)
        closed_p99 = closed_res.percentile("get", 0.99)
        assert closed_p99 < 0.1  # service time only
        assert open_p99 > 5 * closed_p99  # queueing delay is visible
        # and the backlog grows over the run: the last open-loop sample
        # waited roughly the whole accumulated queue, not one service time
        assert max(open_res.get_latencies) > 0.3

    def test_latest_distribution_prefers_recent_writes(self):
        spec = WorkloadSpec(
            target_ops=300,
            duration=4.0,
            distribution="latest",
            read_fraction=0.5,
            num_objects=16,
            seed=6,
        )
        res = run_serving(spec)
        assert res.completed == res.offered
        assert res.put_latencies  # writes happened, recency order moved

    def test_degraded_read_under_partition_completes_via_piggyback(self):
        """A partitioned node + an in-flight repair: the get still lands.

        The lost chunk's read *rides* the queued repair job instead of
        reconstructing (or stalling against the dark node), so the
        degraded read completes even while the partition is active.
        """
        store = ObjectStore(ServerConfig(scheme="RS"), seed=0)
        (key,) = store.preload(1)
        stripe = store.objects[key].stripes[0]
        engine = store.attach_chaos(ChaosConfig(profile="storm", seed=0))
        # hand-build the scenario instead of waiting for the storm: one
        # chunk lost with its repair queued, one unrelated node dark
        store.failed_blocks.add((stripe, 0))
        store.sim.process(store._repair(stripe, 0))
        placement = store.cluster.namenode.lookup(stripe).placement
        dark = next(n for n in range(store.config.num_nodes) if n not in placement)
        engine.state.partition([dark])
        got = drive(store, store.get_op(key))
        assert got["degraded"]
        assert got["piggybacked"] == 1
        assert (stripe, 0) not in store.failed_blocks

    def test_storm_serving_is_deterministic(self):
        spec = WorkloadSpec(target_ops=120, duration=2.0, seed=11)
        cfg = ServerConfig(failure_rate=0.5)
        chaos = ChaosConfig(profile="storm", seed=3)
        r1 = run_serving(spec, cfg, chaos=chaos)
        r2 = run_serving(spec, cfg, chaos=chaos)
        assert r1.chaos is not None and r1.chaos["profile"] == "storm"
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
        )

    def test_chaos_engine_attaches_to_store(self):
        store = ObjectStore(ServerConfig(), seed=0)
        store.preload(4)
        engine = store.attach_chaos(ChaosConfig(profile="storm", seed=1), horizon=5.0)
        assert isinstance(engine, ChaosEngine)
        assert store.cluster.executor.chaos is engine.state
        # the compressed horizon pulled the storm into the run window
        # (burst clustering can jitter a tail fault slightly past it)
        times = [
            fault.time
            for fault in (
                engine.schedule.slowdowns
                + engine.schedule.partitions
                + engine.schedule.corruptions
            )
        ]
        assert times and min(times) < 5.0
        assert max(times) < 2 * 5.0  # nowhere near the default 120 s horizon


# --------------------------------------------------------------- arrival chain
def _watch_heap(monkeypatch, interval=0.002):
    """Sample every run_serving simulator's heap from a daemon process.

    Returns two lists filled during the run: booked arrivals (future-dated
    entries of the arrival chain) and heap depth.
    """
    from repro.server import loadgen

    booked, depth = [], []

    class WatchedStore(ObjectStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sim = self.sim

            def watch():
                while True:
                    booked.append(
                        sum(
                            1
                            for t, _seq, _daemon, fn, _arg in sim._heap
                            if getattr(fn, "__func__", None) is loadgen._Drive.arrive
                            and t > sim.now
                        )
                    )
                    depth.append(len(sim._heap))
                    yield sim.timeout(interval, daemon=True)

            sim.process(watch(), daemon=True)

    monkeypatch.setattr(loadgen, "ObjectStore", WatchedStore)
    return booked, depth


class TestArrivalChain:
    def test_open_loop_books_one_arrival_at_a_time(self, monkeypatch):
        """Each arrival books the next: the heap holds in-flight work plus
        one future arrival, never the offered schedule — even when a
        saturated connection pool lets the backlog of started requests grow."""
        booked, depth = _watch_heap(monkeypatch)
        spec = WorkloadSpec(target_ops=400.0, duration=2.0, connections=2, seed=9)
        res = run_serving(spec)
        assert res.offered > 700
        assert res.offered == res.completed + res.failed
        assert len(booked) > 500
        assert max(booked) == 1
        assert max(depth) < res.offered // 8

    def test_closed_loop_books_nothing_and_is_untouched(self, monkeypatch):
        from tests.test_sim_golden import _digest

        spec = WorkloadSpec(
            mode="closed", workers=4, target_ops=200.0, duration=3.0,
            read_fraction=0.8, seed=4,
        )
        cfg = ServerConfig(failure_rate=5.0)
        r = run_serving(spec, cfg)
        assert r.offered == r.completed + r.failed
        # recorded at 3dc3b35, before the arrival chain existed
        assert _digest(
            r.get_latencies, r.put_latencies, r.degraded_latencies,
            r.repair_latencies, r.stats, r.failed, r.chaos,
        ) == "f5c541a369bbccaa0f4a7d4eb4089344e9493d556c73e098a0001094659218a5"
        booked, _depth = _watch_heap(monkeypatch)
        run_serving(spec, cfg)
        assert booked and max(booked) == 0


class TestStreamedSchedule:
    """``run_serving`` draws its schedule one arrival ahead instead of
    materialising it: it must serve exactly :func:`generate_arrivals`."""

    @pytest.mark.parametrize("connections", [None, 2], ids=["unbounded", "pool=2"])
    @pytest.mark.parametrize("mode", ["open", "closed"])
    @pytest.mark.parametrize("distribution", ["zipfian", "latest", "uniform"])
    def test_serves_generate_arrivals_in_order(self, monkeypatch, distribution, mode, connections):
        spec = WorkloadSpec(
            target_ops=300.0, duration=1.0, read_fraction=0.7, distribution=distribution,
            num_objects=16, connections=connections, mode=mode, workers=3, seed=12,
        )
        taken = self._taken(monkeypatch)
        res = run_serving(spec)
        want = [(a.time, a.op, a.rank) for a in generate_arrivals(spec)]
        assert res.offered == len(want) == res.completed > 200
        if mode == "open":  # the clock starts at the intended arrival
            assert taken == want
        else:  # ... or at dispatch, in schedule order
            assert [t[1:] for t in taken] == [w[1:] for w in want]

    def test_closed_loop_with_more_workers_than_arrivals(self, monkeypatch):
        spec = WorkloadSpec(target_ops=4.0, duration=1.0, mode="closed", workers=16, seed=3)
        want = [(a.op, a.rank) for a in generate_arrivals(spec)]
        assert 0 < len(want) < spec.workers
        taken = self._taken(monkeypatch)
        res = run_serving(spec)
        assert [t[1:] for t in taken] == want
        assert res.offered == res.completed == len(want)
        assert all(t[0] == 0.0 for t in taken)  # one worker per arrival, all at once

    @staticmethod
    def _taken(monkeypatch) -> list:
        """Every offered request as ``(started_at, op, rank)``, in the
        order the drive takes them from the schedule."""
        from repro.server import loadgen

        taken, init = [], loadgen._Offered.__init__

        def spy(self, drive, op, rank, started_at):
            taken.append((started_at, op, rank))
            init(self, drive, op, rank, started_at)

        monkeypatch.setattr(loadgen._Offered, "__init__", spy)
        return taken

    def test_memory_does_not_grow_with_the_offered_schedule(self):
        """Only in-flight requests are held, so ``run_serving``'s traced
        peak grows with what a run keeps by design (a latency sample per
        request, state of the stripes its puts retire), well under the
        ≈ 140 B per offered request that a materialised schedule adds."""
        import tracemalloc

        def peak(duration):
            tracemalloc.start()
            try:
                res = run_serving(WorkloadSpec(target_ops=300.0, duration=duration, seed=1))
                return tracemalloc.get_traced_memory()[1], res.offered
            finally:
                tracemalloc.stop()

        run_serving(WorkloadSpec(target_ops=300.0, duration=1.0, seed=1))  # warm caches
        (short, n_short), (long, n_long) = peak(20.0), peak(60.0)
        assert n_long - n_short > 10_000
        assert (long - short) / (n_long - n_short) < 100


@pytest.mark.parametrize(
    "failure_rate, chaos",
    [(0.0, None), (200.0, None), (0.5, "storm")],
    ids=["healthy", "failure_rate=200", "storm"],
)
def test_finished_requests_die_by_refcount_alone(failure_rate, chaos):
    """``Simulator.run`` pauses the cyclic GC, so a per-request object
    that referenced itself (a cached bound method, a closure over its own
    cell) would live until the run ends and show up as peak RSS.
    Stronger than a weakref to one sample: with the collector off, *no*
    process, fan-out barrier (nor the chaos path's chunk records, which
    hold one), request-chain state, scrub cursor, ride or repair chain of a
    multi-thousand-request run is left alive — healthy, with repairs,
    rides and conversions in flight, and under the storm chaos profile."""
    import gc

    from repro.chaos import ChaosConfig
    from repro.chaos.engine import _Scan
    from repro.cluster.client import _FanOut, _PlanRun
    from repro.cluster.events import Process
    from repro.cluster.recovery import RepairJob, _Conversion, _Repair, _Ride, _Supervised
    from repro.server.loadgen import _Offered
    from repro.server.store import _Request

    chain = (
        Process, _FanOut, _PlanRun, _Request, _Conversion, _Offered,
        _Scan, _Repair, _Ride, _Supervised, RepairJob,
    )
    gc.collect()
    gc.disable()
    try:
        res = run_serving(
            WorkloadSpec(target_ops=400.0, duration=5.0, seed=3),
            ServerConfig(failure_rate=failure_rate),
            ChaosConfig(chaos, seed=4) if chaos else None,
        )
        alive = [o for o in gc.get_objects() if isinstance(o, chain)]
    finally:
        gc.enable()
    assert res.completed + res.failed == res.offered > 1900
    if failure_rate >= 200:
        assert res.stats["repairs"] > 500 and res.stats["degraded_reads"] > 50
    if chaos:
        summary = res.chaos
        assert res.failed > 0 and summary["scrub"]["chunks"] > 0
        assert summary["partition_timeouts"] > 0 and summary["repair_retries"] > 0
        assert res.stats["repairs"] > 0 and summary["scrub"]["detected"] > 0
    else:
        assert res.failed == 0
    assert alive == []


def test_each_arrival_books_the_next_one_first(monkeypatch):
    """The arrival chain's order: an arrival's first push is the next
    arrival, before its own connection grant or metadata round trip."""
    from repro.cluster.events import Simulator
    from repro.server import loadgen

    pushes, firsts = [], []
    for name in ("call_later", "call_at"):

        def logged(self, *args, _push=getattr(Simulator, name), _name=name, **kwargs):
            pushes.append(_name)
            return _push(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, name, logged)
    arrive = loadgen._Drive.arrive

    def watched(self, index):
        before = len(pushes)
        arrive(self, index)
        firsts.append(pushes[before] if len(pushes) > before else None)

    monkeypatch.setattr(loadgen._Drive, "arrive", watched)
    for connections in (None, 2):
        firsts.clear()
        res = run_serving(WorkloadSpec(target_ops=300.0, duration=1.0, connections=connections, seed=9))
        assert len(firsts) == res.offered > 200
        assert firsts[:-1] == ["call_at"] * (res.offered - 1)


def test_degraded_get_falls_back_when_the_ridden_repair_fails(monkeypatch):
    """A get riding a repair that gives up reconstructs the chunk itself
    through ``plan_degraded_read`` — it is neither lost nor counted as
    piggybacked."""
    from repro.cluster.recovery import RecoveryError

    store = ObjectStore(ServerConfig(scheme="RS"), seed=0)
    (key,) = store.preload(1)
    stripe = store.objects[key].stripes[0]

    def give_up(plans, stripe, done, ctx=None):
        store.sim.call_later(0.01, lambda _: done(None, RecoveryError("every helper is gone")))

    monkeypatch.setattr(store.cluster.recovery, "submit_cb", give_up)
    rebuilt = []
    plan_degraded_read = store.scheme.plan_degraded_read

    def spy(stripe, block):
        rebuilt.append((stripe, block))
        return plan_degraded_read(stripe, block)

    monkeypatch.setattr(store.scheme, "plan_degraded_read", spy)
    store.failed_blocks.add((stripe, 0))
    store.sim.process(store._repair(stripe, 0))
    got = drive(store, store.get_op(key))
    assert got["degraded"] and got["piggybacked"] == 0
    assert rebuilt == [(stripe, 0)]
    assert got["latency"] > 0.01  # it did wait for the ride first
    assert [u["block"] for u in store.unrecoverable] == [0]


def test_frontend_is_picked_when_the_kick_off_is_booked():
    """A request takes its frontend's round-robin turn as it books the
    main plans' kick-off entry, not when that entry fires: a pick at the
    same instant in between (another request's conversion landing) must
    not take the turn, or the two requests swap coordinators."""
    store = ObjectStore(ServerConfig(scheme="RS"), seed=0)
    (key,) = store.preload(1)
    store.sim.process(store.get_op(key))
    store.sim.step()  # the process starts: the metadata round trip is booked
    store.sim.step()  # it lands: the kick-off is booked, its frontend picked
    assert len(store.sim._heap) == 1 and store._rr == 1
