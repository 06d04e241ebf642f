"""Extension bench — whole-node failure storms per scheme.

Not a paper figure: measures how each scheme drains a node-loss recovery
storm (the paper's single-chunk recovery, multiplied) while foreground
traffic keeps flowing — total storm repair work and mean per-chunk
latency under contention.
"""

from repro.cluster import ClusterConfig, run_workload
from repro.experiments import SCHEME_ORDER, ExperimentConfig, build_schemes, format_table
from repro.workloads import NodeFailureEvent, make_trace


def run_storm():
    config = ExperimentConfig(num_requests=150, num_stripes=24)
    trace = make_trace(
        "web1",
        num_requests=config.num_requests,
        num_stripes=config.num_stripes,
        blocks_per_stripe=config.k,
        write_once=True,
    )
    schemes = build_schemes(config)
    cluster = ClusterConfig(num_nodes=config.num_nodes, profile=config.profile)
    out = {}
    for name in SCHEME_ORDER:
        res = run_workload(
            schemes[name],
            trace,
            config=cluster,
            node_failures=[NodeFailureEvent(time=0.0, node=3)],
        )
        out[name] = res
    return out


def test_node_storm(save_result):
    results = run_storm()
    rows = [
        [
            name,
            len(res.recovery_latencies),
            round(res.epsilon2, 3),
            round(res.epsilon1, 3),
        ]
        for name, res in results.items()
    ]
    save_result(
        "node_storm",
        format_table(
            ["scheme", "chunks rebuilt", "eps2 (s)", "eps1 (s)"],
            rows,
            title="Node-failure storm: repair latency under a whole-node loss",
        ),
    )
    # every scheme repairs the same chunk population
    counts = {len(r.recovery_latencies) for r in results.values()}
    assert len(counts) == 1
    # EC-Fusion's storm repairs must beat plain RS's
    assert results["EC-Fusion"].epsilon2 < results["RS"].epsilon2
