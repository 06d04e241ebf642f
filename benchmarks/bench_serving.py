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

import time

from repro import telemetry
from repro.chaos import ChaosConfig
from repro.experiments import format_table
from repro.server import ServerConfig, WorkloadSpec, run_serving
from repro.telemetry import TRACER

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


def test_serving_tracing_overhead(save_result):
    """Causal tracing must be cheap when on and free when off.

    Runs the same seeded workload with the tracer off and on and
    compares wall-clock time.  The ``compare`` metric is the on/off
    *ratio* measured in the same process on the same machine, so it
    survives the absolute-speed swings of shared CI runners.  The
    simulated results must be bit-identical either way — tracing
    observes the simulation, it never perturbs it.
    """
    spec = WorkloadSpec(
        target_ops=400.0,
        duration=DURATION,
        read_fraction=0.9,
        distribution="zipfian",
        seed=SEED,
    )
    config = ServerConfig(failure_rate=0.5)

    def timed_run(tracing: bool):
        telemetry.disable()
        telemetry.reset()
        if tracing:
            telemetry.enable(metrics=False, tracing=True)
        best = float("inf")
        res = None
        for _ in range(2):  # best-of-2 damps one-off scheduler hiccups
            telemetry.reset()
            start = time.perf_counter()
            res = run_serving(spec, config)
            best = min(best, time.perf_counter() - start)
        events = len(TRACER.events)
        telemetry.disable()
        telemetry.reset()
        return res, best, events

    base_res, base_wall, base_events = timed_run(tracing=False)
    traced_res, traced_wall, traced_events = timed_run(tracing=True)

    assert base_events == 0, "tracer recorded events while disabled"
    assert traced_events > 0, "traced run produced no events"
    assert traced_res.get_latencies == base_res.get_latencies, (
        "tracing perturbed the simulation"
    )
    assert traced_res.put_latencies == base_res.put_latencies
    ratio = traced_wall / base_wall
    rows = [
        ["off", f"{base_wall * 1e3:.1f}", "0", "1.00"],
        ["on", f"{traced_wall * 1e3:.1f}", f"{traced_events}", f"{ratio:.2f}"],
    ]
    text = format_table(
        ["tracing", "wall ms", "events", "ratio vs off"],
        rows,
        title=(
            f"Causal-tracing overhead — {spec.target_ops:.0f} ops/s for "
            f"{DURATION:.0f}s, {base_res.completed} ops, identical results"
        ),
    )
    entries = [
        {
            "name": "serving.tracing_overhead",
            "completed_ops": base_res.completed,
            "trace_events": traced_events,
            "wall_ms": {"off": base_wall * 1e3, "on": traced_wall * 1e3},
            "compare": {"tracing_overhead_ratio": ratio},
        }
    ]
    save_result("serving_tracing", text, data={"entries": entries})
