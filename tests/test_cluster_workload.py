"""Integration tests: plan execution and workload replay on the simulated cluster."""

import pytest

from repro.cluster import Cluster, ClusterConfig, SimulationResult, run_workload
from repro.fusion.costmodel import SystemProfile
from repro.hybrid import ECFusionPlanner, OpPlan, PlanKind, RSPlanner
from repro.workloads import FailureEvent, OpType, Request, Trace

GAMMA = 1024.0 * 1024


def small_config():
    return ClusterConfig(num_nodes=18, profile=SystemProfile(gamma=GAMMA))


def make_trace(ops):
    """ops: list of (time, 'r'/'w', stripe, block)."""
    return Trace(
        name="t",
        requests=[
            Request(time=t, op=OpType.READ if o == "r" else OpType.WRITE, stripe=s, block=b)
            for t, o, s, b in ops
        ],
    )


class TestPlanExecution:
    def test_write_latency_components(self):
        """A single write's latency = compute + client NIC + slowest node path."""
        config = small_config()
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace([(0.0, "w", 0, 0)])
        res = run_workload(scheme, trace, [], config)
        assert len(res.write_latencies) == 1
        lat = res.write_latencies[0]
        p = config.profile
        compute = GAMMA * 4 * 2 / p.alpha
        client_nic = 6 * GAMMA / p.lam + 200e-6
        node_path = GAMMA / p.lam + 200e-6 + GAMMA / p.disk_bandwidth
        expected_min = compute + client_nic + node_path
        assert lat == pytest.approx(expected_min, rel=0.1)

    def test_read_cheaper_than_write(self):
        config = small_config()
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace([(0.0, "w", 0, 0), (1.0, "r", 0, 1)])
        res = run_workload(scheme, trace, [], config)
        assert res.read_latencies[0] < res.write_latencies[0]

    def test_executor_rejects_unknown_behaviour_gracefully(self):
        """A plan reading a slot beyond placement raises via lookup."""
        config = small_config()
        cluster = Cluster(config, width=4)
        plan = OpPlan(PlanKind.READ, reads={9: GAMMA})

        def proc():
            yield from cluster.executor.execute(
                plan, "s", cluster.client.cpu, cluster.client.nic
            )

        cluster.sim.process(proc())
        with pytest.raises(IndexError):
            cluster.sim.run()


class TestClosedLoopReplay:
    def test_all_requests_complete(self):
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace([(float(i), "w" if i % 3 else "r", i % 4, 0) for i in range(30)])
        res = run_workload(scheme, trace, [], small_config())
        assert len(res.app_latencies) == 30

    def test_failures_interleave_with_requests(self):
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace([(float(i), "w", i % 4, 0) for i in range(20)])
        fails = [FailureEvent(time=0.0, stripe=0, block=1) for _ in range(4)]
        res = run_workload(scheme, trace, fails, small_config())
        assert len(res.recovery_latencies) == 4
        assert all(lat > 0 for lat in res.recovery_latencies)

    def test_failures_without_requests(self):
        scheme = RSPlanner(4, 2, GAMMA)
        res = run_workload(
            scheme, Trace(name="empty"), [FailureEvent(0.0, 0, 0)], small_config()
        )
        assert len(res.recovery_latencies) == 1

    def test_open_mode_honours_timestamps(self):
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace([(100.0, "r", 0, 0)])
        res = run_workload(scheme, trace, [], small_config(), mode="open")
        assert res.sim_time >= 100.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_workload(RSPlanner(4, 2, GAMMA), Trace(name="t"), [], mode="warp")


class TestMetricsOnResults:
    def test_epsilons_and_overall(self):
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace([(float(i), "r", 0, 0) for i in range(10)])
        fails = [FailureEvent(0.0, 0, 1)]
        res = run_workload(scheme, trace, fails, small_config())
        assert res.epsilon1 > 0
        assert res.epsilon2 > 0
        mu1, mu2 = 10, 1
        expected = (mu1 * res.epsilon1 + mu2 * res.epsilon2) / 11
        assert res.overall == pytest.approx(expected)
        assert res.cost_effective == pytest.approx(1 / (res.overall * 1.5))

    def test_empty_result_metrics(self):
        scheme = RSPlanner(4, 2, GAMMA)
        res = run_workload(scheme, Trace(name="t"), [], small_config())
        assert res.epsilon1 == 0.0
        assert res.overall == 0.0
        assert res.cost_effective == float("inf")


class TestOnlineRecoveryContention:
    def test_recovery_slows_foreground_traffic(self):
        """Online recovery must interfere with application latency."""
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace([(0.0, "r", 0, 0) for _ in range(40)])
        quiet = run_workload(scheme, trace, [], small_config())
        noisy = run_workload(
            scheme,
            trace,
            [FailureEvent(0.0, 0, 1) for _ in range(20)],
            small_config(),
        )
        assert noisy.epsilon1 >= quiet.epsilon1

    def test_conversions_recorded_separately(self):
        profile = SystemProfile(gamma=GAMMA)
        scheme = ECFusionPlanner(4, 2, GAMMA, profile=profile)
        trace = make_trace([(0.0, "w", 0, 0)])
        fails = [FailureEvent(0.0, 0, 0)]
        res = run_workload(scheme, trace, fails, small_config())
        # δ = 1/1 vs η(4,2): conversion happens iff η > 1; either way the
        # recovery sample must not silently include a conversion
        assert len(res.recovery_latencies) == 1
        if res.conversion_latencies:
            assert res.conversion_latencies[0] > 0

    def test_utilization_diagnostics(self):
        config = small_config()
        cluster = Cluster(config, width=6)

        def proc():
            yield cluster.nodes[0].disk.read_ev(GAMMA)

        cluster.sim.process(proc())
        cluster.sim.run()
        util = cluster.utilization()
        assert set(util) == {"disk", "nic", "cpu"}
        assert util["disk"] > 0


class TestPercentiles:
    def test_percentiles_ordering(self):
        scheme = RSPlanner(4, 2, GAMMA)
        trace = make_trace(
            [(float(i), "r" if i % 2 else "w", i % 4, 0) for i in range(30)]
        )
        fails = [FailureEvent(0.0, 0, 1) for _ in range(5)]
        res = run_workload(scheme, trace, fails, small_config())
        assert res.app_percentile(0.0) <= res.app_percentile(0.5)
        assert res.app_percentile(0.5) <= res.app_percentile(0.99)
        assert res.recovery_percentile(0.5) > 0

    def test_percentile_validation(self):
        scheme = RSPlanner(4, 2, GAMMA)
        res = run_workload(scheme, Trace(name="t"), [], small_config())
        assert res.app_percentile(0.5) == 0.0  # empty
        with pytest.raises(ValueError):
            res.app_percentile(1.5)
        with pytest.raises(ValueError):
            res.recovery_percentile(-0.1)

    def test_p50_of_100_samples_is_the_50th(self):
        """Nearest rank, not ``round(q·(n−1))`` (which picks the 51st)."""
        res = SimulationResult(
            scheme="t",
            trace="t",
            read_latencies=[float(i) for i in range(100, 40, -1)],
            write_latencies=[float(i) for i in range(1, 41)],
            recovery_latencies=[float(i) for i in range(100, 0, -1)],
        )
        assert res.app_percentile(0.5) == 50.0
        assert res.recovery_percentile(0.5) == 50.0
        assert res.recovery_percentile(0.99) == 99.0
        assert res.recovery_percentile(1.0) == 100.0
        assert res.app_percentile(0.0) == 1.0
