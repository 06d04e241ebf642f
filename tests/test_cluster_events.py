"""Tests for the discrete-event kernel."""

import pytest

from repro.cluster import AllOf, Event, FIFOResource, Simulator


class TestSimulator:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(3)
            log.append(sim.now)
            yield sim.timeout(2)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [3.0, 5.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_run_until(self):
        sim = Simulator()
        log = []

        def proc():
            for _ in range(10):
                yield sim.timeout(1)
                log.append(sim.now)

        sim.process(proc())
        sim.run(until=4.5)
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert sim.now == 4.5

    def test_deterministic_tie_order(self):
        sim = Simulator()
        log = []

        def proc(tag):
            yield sim.timeout(1)
            log.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_process_result_value(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1)
            return 42

        def outer(out):
            value = yield sim.process(inner())
            out.append(value)

        out = []
        sim.process(outer(out))
        sim.run()
        assert out == [42]

    def test_process_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 5

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()


class TestDaemonEvents:
    def test_daemon_only_heap_does_not_run(self):
        sim = Simulator()
        log = []

        def beat():
            while True:
                log.append(sim.now)
                yield sim.timeout(1, daemon=True)

        sim.process(beat(), daemon=True)
        sim.run()
        # nothing non-daemon pending: the loop never spins, clock stays put
        assert log == [] and sim.now == 0.0

    def test_daemon_interleaves_then_stops_with_foreground(self):
        sim = Simulator()
        beats = []

        def beat():
            while True:
                beats.append(sim.now)
                yield sim.timeout(2, daemon=True)

        def work():
            yield sim.timeout(5)

        sim.process(beat(), daemon=True)
        sim.process(work())
        sim.run()
        # samples at 0/2/4 while work is pending; run ends when work does
        assert beats == [0.0, 2.0, 4.0]
        assert sim.now == 5.0

    def test_daemon_does_not_change_foreground_schedule(self):
        def drive(with_daemon):
            sim = Simulator()
            log = []

            def work(tag, delay):
                yield sim.timeout(delay)
                log.append((tag, sim.now))

            if with_daemon:

                def beat():
                    while True:
                        yield sim.timeout(0.5, daemon=True)

                sim.process(beat(), daemon=True)
            for tag, delay in (("a", 1), ("b", 3), ("c", 2)):
                sim.process(work(tag, delay))
            sim.run()
            return log, sim.now

        assert drive(with_daemon=False) == drive(with_daemon=True)

    def test_run_until_still_honoured_with_daemons(self):
        sim = Simulator()
        beats = []

        def beat():
            while True:
                beats.append(sim.now)
                yield sim.timeout(1, daemon=True)

        def work():
            yield sim.timeout(10)

        sim.process(beat(), daemon=True)
        sim.process(work())
        sim.run(until=2.5)
        assert beats == [0.0, 1.0, 2.0]
        assert sim.now == 2.5


class TestAllOf:
    def test_barrier_waits_for_slowest(self):
        sim = Simulator()
        done = []

        def worker(d):
            yield sim.timeout(d)

        def coordinator():
            yield AllOf(sim, [sim.process(worker(d)) for d in (1, 5, 3)])
            done.append(sim.now)

        sim.process(coordinator())
        sim.run()
        assert done == [5.0]

    def test_empty_barrier_fires_immediately(self):
        sim = Simulator()
        done = []

        def coordinator():
            yield AllOf(sim, [])
            done.append(sim.now)

        sim.process(coordinator())
        sim.run()
        assert done == [0.0]

    def test_already_triggered_children(self):
        sim = Simulator()
        ev = Event(sim)
        ev.succeed()
        done = []

        def proc():
            yield AllOf(sim, [ev])
            done.append(True)

        sim.process(proc())
        sim.run()
        assert done == [True]


class TestFIFOResource:
    def test_serializes_users(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        log = []

        def user(tag, hold):
            yield from res.use(hold)
            log.append((tag, sim.now))

        for tag, hold in (("a", 3), ("b", 2), ("c", 1)):
            sim.process(user(tag, hold))
        sim.run()
        assert log == [("a", 3.0), ("b", 5.0), ("c", 6.0)]

    def test_release_without_acquire(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        with pytest.raises(RuntimeError):
            res.release()

    def test_negative_duration_rejected(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")

        def proc():
            yield from res.use(-1)

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()

    def test_busy_time_accounting(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")

        def user():
            yield from res.use(2.5)

        sim.process(user())
        sim.process(user())
        sim.run()
        assert res.busy_time == pytest.approx(5.0)
        assert res.served == 2

    def test_queue_depth_counts_waiting_and_in_service(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        depths = []

        def user():
            yield from res.use(2)

        def watcher():
            # sample at t=1/3/5, between the t=2 and t=4 hand-offs
            yield sim.timeout(1)
            for _ in range(3):
                depths.append(res.queue_depth)
                yield sim.timeout(2)

        sim.process(user())
        sim.process(user())
        sim.process(watcher())
        sim.run()
        assert depths == [2, 1, 0]

    def test_parallel_resources_do_not_serialize(self):
        sim = Simulator()
        r1, r2 = FIFOResource(sim, "r1"), FIFOResource(sim, "r2")
        log = []

        def user(res, tag):
            yield from res.use(4)
            log.append((tag, sim.now))

        sim.process(user(r1, "a"))
        sim.process(user(r2, "b"))
        sim.run()
        assert log == [("a", 4.0), ("b", 4.0)]


class TestEventFailure:
    """Failure propagation: failed events throw into waiters (simpy-style)."""

    def test_fail_throws_into_waiting_process(self):
        sim = Simulator()
        ev = Event(sim)
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))
            yield sim.timeout(1)

        sim.process(proc())

        def failer():
            yield sim.timeout(2)
            ev.fail(RuntimeError("boom"))

        sim.process(failer())
        sim.run()
        assert caught == ["boom"]
        assert sim.now == 3.0  # the catching process kept running

    def test_unhandled_failure_propagates_to_process_waiter(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1)
            raise ValueError("inner exploded")

        def outer():
            with pytest.raises(ValueError, match="inner exploded"):
                yield sim.process(inner())
            yield sim.timeout(1)

        sim.process(outer())
        sim.run()
        assert sim.now == 2.0

    def test_failure_with_no_waiter_raises_out_of_run(self):
        sim = Simulator()

        def doomed():
            yield sim.timeout(1)
            raise ValueError("nobody is listening")

        sim.process(doomed())
        # keep the loop alive past t=1 so the failure happens inside run()
        def bystander():
            yield sim.timeout(5)

        sim.process(bystander())
        with pytest.raises(ValueError, match="nobody is listening"):
            sim.run()

    def test_fail_requires_exception_instance(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            Event(sim).fail("not an exception")

    def test_fail_after_trigger_rejected(self):
        sim = Simulator()
        ev = Event(sim)
        ev.callbacks.append(lambda e: None)
        ev.fail(RuntimeError("x"))
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.fail(RuntimeError("y"))

    def test_allof_fails_on_first_child_failure(self):
        sim = Simulator()

        def ok(delay):
            yield sim.timeout(delay)

        def bad():
            yield sim.timeout(2)
            raise OSError("disk gone")

        caught = []

        def waiter():
            try:
                yield sim.all_of([sim.process(ok(1)), sim.process(bad()), sim.process(ok(5))])
            except OSError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(waiter())
        sim.run()
        assert caught == [(2.0, "disk gone")]

    def test_allof_late_sibling_failure_is_ignored(self):
        sim = Simulator()

        def bad(delay, msg):
            yield sim.timeout(delay)
            raise OSError(msg)

        caught = []

        def waiter():
            try:
                yield sim.all_of([sim.process(bad(1, "first")), sim.process(bad(2, "second"))])
            except OSError as exc:
                caught.append(str(exc))
            yield sim.timeout(5)  # outlive the second failure

        sim.process(waiter())
        sim.run()  # the second failure must not re-raise out of run()
        assert caught == ["first"]


class TestCallbackHolds:
    """``use_cb``: the one hold implementation (``use_ev`` wraps it)."""

    def test_release_precedes_continuation(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        seen = {}

        def after_first(_arg):
            # the server was already handed on: the queued waiter is out of
            # the queue (depth 2 -> 1) ...
            seen["depth_in_continuation"] = res.queue_depth
            sim.call_later(0.0, lambda _: seen.update(served_next=res.served))

        res.use_cb(1.0, after_first)
        res.use_cb(1.0, lambda _: None)
        assert res.queue_depth == 2
        sim.run()
        assert seen["depth_in_continuation"] == 1
        # ... and its grant entry was pushed before anything the
        # continuation scheduled for the same instant
        assert seen["served_next"] == 2

    def test_mixed_waiters_grant_strictly_fifo(self):
        sim = Simulator()
        res = FIFOResource(sim, "r", capacity=2)
        granted = []
        res.use_cb(10.0, lambda _: None)
        res.use_cb(11.0, lambda _: None)

        def hold_event(tag, hold):
            def on_grant(_ev):
                granted.append((tag, sim.now))
                sim.call_later(hold, lambda _: res.release())

            res.acquire().wait(on_grant)

        def hold_record(tag, hold):
            res.use_cb(hold, lambda _: granted.append((tag, sim.now - hold)))

        hold_event("e1", 5.0)
        hold_record("c2", 2.0)
        hold_event("e3", 5.0)
        hold_record("c4", 1.0)
        assert res.queue_depth == 6
        sim.run()
        assert sorted(granted, key=lambda g: g[1]) == [
            ("e1", 10.0), ("c2", 11.0), ("e3", 13.0), ("c4", 15.0),
        ]
        assert res.queue_depth == 0

    def test_hold_costs_one_entry_uncontended_two_contended(self):
        sim = Simulator()
        res = FIFOResource(sim, "r")
        assert sim.events_scheduled == 0
        res.use_cb(1.0, lambda _: None)
        assert sim.events_scheduled == 1  # the hold itself, no grant
        res.use_cb(1.0, lambda _: None)
        assert sim.events_scheduled == 1  # queued: nothing pushed yet
        sim.run()
        assert sim.events_scheduled == 3  # + zero-delay grant + hold
        assert sim.now == 2.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FIFOResource(Simulator(), "r").use_cb(-1.0, lambda _: None)

    @pytest.mark.parametrize("metered", [False, True])
    def test_accounting_matches_use_ev_path(self, metered):
        from repro.telemetry import METRICS

        def drive(hold):
            METRICS.reset()
            if metered:
                METRICS.enable()
            try:
                sim = Simulator()
                res = FIFOResource(sim, "probe7")
                depths = []
                for duration in (2.0, 1.0, 3.0):
                    hold(res, duration)
                sim.call_later(1.5, lambda _: hold(res, 0.5))
                for at in (0.5, 2.5, 4.0, 6.25):
                    sim.call_later(at, lambda _: depths.append(res.queue_depth))
                sim.run()
                series = {
                    name: METRICS.snapshot().get(name)
                    for name in (
                        "sim.queue_wait.probe", "sim.busy_time.probe", "sim.served.probe"
                    )
                }
                return res.busy_time, res.served, depths, sim.now, series
            finally:
                METRICS.disable()
                METRICS.reset()

        via_cb = drive(lambda res, d: res.use_cb(d, lambda _: None))
        via_ev = drive(lambda res, d: res.use_ev(d).wait(lambda _ev: None))
        assert via_cb == via_ev
        assert via_cb[:4] == (6.5, 4, [3, 3, 2, 1], 6.5)
        assert (via_cb[4]["sim.served.probe"] is not None) == metered


class TestProcessAt:
    @pytest.mark.parametrize(
        "now, t",
        [
            (0.0, 0.1 + 0.2),
            # 0.2 + (t - 0.2) != t in floats: only pushing t itself is exact
            (0.2, 0.7 + 0.1),
        ],
    )
    def test_starts_at_the_absolute_time_bit_exactly(self, now, t):
        sim = Simulator()
        sim.run(until=now)
        started = []

        def proc():
            started.append(sim.now)
            yield sim.timeout(1)

        sim.process(proc(), at=t)
        sim.run()
        assert started == [t]
        assert sim.now == t + 1

    def test_start_in_the_past_rejected(self):
        sim = Simulator()
        sim.run(until=2.0)

        def proc():
            yield sim.timeout(1)

        with pytest.raises(ValueError):
            sim.process(proc(), at=1.0)

    def test_call_later_rejects_the_past_and_honours_daemon(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-1.0, lambda _: None)
        fired = []
        sim.call_later(1.0, fired.append, "daemon", daemon=True)
        sim.run()
        assert fired == [] and sim.now == 0.0  # daemons alone keep nothing alive
        sim.call_later(2.0, fired.append, "work")
        sim.run()
        assert fired == ["daemon", "work"]
