"""Serving-layer benchmark — ops/s at the p99 SLO, and storm degraded reads.

Two fully *simulated* measurements (no wall-clock anywhere, so every
number is deterministic under the fixed seeds and safe to ratio-compare
in CI):

* an open-loop offered-load ladder that reports get p50/p99/p999 per
  rung and the highest rung whose p99 still meets the SLO — the
  serving-capacity headline;
* a storm run whose degraded-read p99 pins the piggyback/reconstruction
  path's latency under correlated faults.

Structured entries land in ``benchmarks/results/serving_*.json`` via
``save_result``; their ``compare`` ratios only move when serving
behaviour changes.
"""

from __future__ import annotations

from repro.chaos import ChaosConfig
from repro.experiments import format_table
from repro.server import ServerConfig, WorkloadSpec, run_serving

#: the headline service-level objective: get p99 under this many seconds
SLO_S = 0.050

LADDER = (200.0, 400.0, 600.0, 800.0)
DURATION = 6.0
SEED = 21


def test_serving_slo_ladder(save_result):
    config = ServerConfig()
    rows = []
    compare = {}
    ops_at_slo = 0.0
    for target in LADDER:
        spec = WorkloadSpec(
            target_ops=target,
            duration=DURATION,
            read_fraction=0.95,
            distribution="zipfian",
            seed=SEED,
        )
        res = run_serving(spec, config)
        p99 = res.percentile("get", 0.99)
        meets = p99 <= SLO_S
        if meets:
            ops_at_slo = max(ops_at_slo, res.achieved_ops)
        rows.append(
            [
                f"{target:.0f}",
                f"{res.achieved_ops:.0f}",
                res.percentile("get", 0.50) * 1e3,
                p99 * 1e3,
                res.percentile("get", 0.999) * 1e3,
                "yes" if meets else "no",
            ]
        )
        compare[f"get_p99_ms_at_{target:.0f}"] = p99 * 1e3
    compare["ops_at_p99_slo"] = ops_at_slo
    text = format_table(
        ["offered ops/s", "achieved", "p50 ms", "p99 ms", "p999 ms",
         f"p99<={SLO_S * 1e3:.0f}ms"],
        rows,
        title=(
            f"Serving SLO ladder — {config.scheme} k={config.k} r={config.r}, "
            f"{config.frontends} frontends, zipfian 95% reads, {DURATION:.0f}s"
        ),
    )
    assert ops_at_slo > 0, "no ladder rung met the SLO — capacity regressed"
    entries = [
        {
            "name": "serving.slo_ladder",
            "slo_ms": SLO_S * 1e3,
            "ladder": list(LADDER),
            "duration_s": DURATION,
            "seed": SEED,
            "compare": compare,
        }
    ]
    save_result("serving_slo", text, data={"entries": entries})


def test_serving_degraded_under_storm(save_result):
    spec = WorkloadSpec(
        target_ops=300.0,
        duration=8.0,
        read_fraction=0.9,
        distribution="zipfian",
        seed=SEED,
    )
    config = ServerConfig(failure_rate=0.5)
    res = run_serving(spec, config, chaos=ChaosConfig(profile="storm", seed=3))
    assert res.degraded_latencies, "storm produced no degraded reads to measure"
    degraded_p99 = res.percentile("degraded_read", 0.99)
    get_p99 = res.percentile("get", 0.99)
    rows = [
        ["get", res.stats["gets"], res.percentile("get", 0.50) * 1e3,
         get_p99 * 1e3],
        ["degraded read", len(res.degraded_latencies),
         res.percentile("degraded_read", 0.50) * 1e3, degraded_p99 * 1e3],
    ]
    text = format_table(
        ["path", "count", "p50 ms", "p99 ms"],
        rows,
        title=(
            f"Degraded reads under storm — {config.scheme}, "
            f"{res.stats['piggybacked_reads']} piggybacked, "
            f"{res.failed} failed requests"
        ),
    )
    entries = [
        {
            "name": "serving.degraded_storm",
            "chaos": res.chaos,
            "counts": {
                "degraded_reads": res.stats["degraded_reads"],
                "piggybacked_reads": res.stats["piggybacked_reads"],
                "chunk_failures": res.stats["chunk_failures"],
                "failed_requests": res.failed,
            },
            "compare": {
                "degraded_read_p99_ms": degraded_p99 * 1e3,
                "get_p99_ms": get_p99 * 1e3,
            },
        }
    ]
    save_result("serving_storm", text, data={"entries": entries})

