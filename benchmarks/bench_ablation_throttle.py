"""Ablation — recovery-bandwidth throttling under a node-failure storm.

Sweeps the shared repair-bandwidth cap and reports the foreground/
background trade-off: tighter caps protect application latency at the
price of a longer exposed (under-replicated) window — the operational
dial the paper's online-recovery scenario turns implicitly.
"""

from repro.cluster import ClusterConfig, run_workload
from repro.experiments import ExperimentConfig, format_table
from repro.hybrid import RSPlanner
from repro.workloads import NodeFailureEvent, make_trace


def run_sweep():
    exp = ExperimentConfig(num_requests=120, num_stripes=20)
    trace = make_trace(
        "web1",
        num_requests=exp.num_requests,
        num_stripes=exp.num_stripes,
        blocks_per_stripe=exp.k,
        write_once=True,
    )
    caps = [None, 200e6, 50e6, 10e6]
    out = []
    for cap in caps:
        scheme = RSPlanner(exp.k, exp.r, exp.gamma)
        config = ClusterConfig(
            num_nodes=exp.num_nodes,
            profile=exp.profile,
            recovery_bandwidth_cap=cap,
        )
        res = run_workload(
            scheme,
            trace,
            config=config,
            node_failures=[NodeFailureEvent(time=0.0, node=2)],
        )
        out.append((cap, res))
    return out


def test_ablation_recovery_throttle(save_result):
    points = run_sweep()
    rows = [
        [
            "unlimited" if cap is None else f"{cap / 1e6:.0f} MB/s",
            round(res.epsilon1, 3),
            round(res.epsilon2, 3),
            len(res.recovery_latencies),
        ]
        for cap, res in points
    ]
    save_result(
        "ablation_throttle",
        format_table(
            ["repair cap", "eps1 (s)", "eps2 (s)", "chunks rebuilt"],
            rows,
            title="Ablation — repair throttling: foreground vs exposure trade-off",
        ),
    )
    eps1 = [res.epsilon1 for _, res in points]
    eps2 = [res.epsilon2 for _, res in points]
    # the dial works: the tightest cap shields foreground latency while
    # stretching the exposed recovery window substantially
    assert eps1[-1] <= eps1[0]
    assert eps2[-1] > 2 * eps2[0]
