"""Ablation — Queue2 capacity and eviction policy (LRU vs LFU).

An undersized Queue2 evicts hot-recovery stripes, wasting transformation
work on re-conversions; this bench sweeps capacity and policy on a
localised failure stream and reports executed conversions + final ρ.
"""

from dataclasses import replace

from repro.cluster import run_workload
from repro.experiments import ExperimentConfig, format_table
from repro.fusion.queues import CachePolicy
from repro.hybrid import ECFusionPlanner
from repro.workloads import failures_for_trace, make_trace


def run_point(config, capacity, policy):
    trace = make_trace(
        "web1",
        num_requests=config.num_requests,
        num_stripes=config.num_stripes,
        blocks_per_stripe=config.k,
        write_once=True,
    )
    failures = failures_for_trace(
        trace,
        blocks_per_stripe=config.k,
        rate=config.failure_rate,
        seed=config.seed,
        num_stripes=config.num_stripes,
        spatial_decay=config.spatial_decay,
    )
    scheme = ECFusionPlanner(
        config.k,
        config.r,
        config.gamma,
        profile=config.profile,
        queue_capacity=capacity,
        policy=policy,
    )
    result = run_workload(scheme, trace, failures, config.cluster)
    return scheme.conversion_count, result.epsilon2, scheme.storage_overhead()


def test_ablation_queue_capacity(bench_config, save_result):
    config = replace(bench_config, num_requests=200)
    capacities = (2, 4, 16, config.num_stripes)
    points = [run_point(config, c, CachePolicy.LRU) for c in capacities]
    rows = [
        [c, conv, round(eps2, 3), round(rho, 3)]
        for c, (conv, eps2, rho) in zip(capacities, points)
    ]
    save_result(
        "ablation_queue_capacity",
        format_table(
            ["capacity", "conversions", "eps2", "rho"],
            rows,
            title="Ablation — Queue2 capacity (LRU): churn vs storage",
        ),
    )
    # a queue covering the hot set converts no more than a tiny queue
    assert points[-1][0] <= points[0][0] + 2


def test_ablation_queue_policy(bench_config, save_result):
    config = replace(bench_config, num_requests=200)
    points = {
        policy.value: run_point(config, 8, policy)
        for policy in (CachePolicy.LRU, CachePolicy.LFU)
    }
    rows = [
        [name, conv, round(eps2, 3), round(rho, 3)]
        for name, (conv, eps2, rho) in points.items()
    ]
    save_result(
        "ablation_queue_policy",
        format_table(
            ["policy", "conversions", "eps2", "rho"],
            rows,
            title="Ablation — Queue2 eviction policy at capacity 8",
        ),
    )
    assert set(points) == {"lru", "lfu"}
