"""Campaign wall-clock benchmark — serial vs process-parallel fan-out.

Times one compact Fig. 17-style campaign (every scheme on one trace)
through :func:`run_campaign` at ``jobs=1`` and ``jobs=4``, verifying the
two produce identical simulation results before reporting.  The jobs=4
ratio depends entirely on the host's core count — on a single-core
runner it is expected to sit near (or below) 1× because the fan-out only
adds process transport — so it is recorded as data, never asserted.

Also records the pipelined-repair comparison (simulated recovery-time
speedups — deterministic, unlike wall-clock — see
``test_campaign_pipeline_repair``).

Structured timings land in ``benchmarks/results/campaign*.json`` via
``save_result``; absolute wall-clock is machine-dependent, so no
wall-clock number in this file is asserted or compared by CI.
"""

from __future__ import annotations

import os
import pickle
import time

from repro.experiments import ExperimentConfig, run_campaign
from repro.experiments import fig_pipeline_repair, format_table

CONFIG = ExperimentConfig(num_requests=120, num_stripes=24)
TRACES = ["mds1"]


def _run(jobs: int) -> tuple[float, dict]:
    t0 = time.perf_counter()
    campaign = run_campaign(CONFIG, traces=TRACES, use_cache=False, jobs=jobs)
    return time.perf_counter() - t0, campaign.results


def test_campaign_serial_vs_jobs4(save_result):
    best = {1: float("inf"), 4: float("inf")}
    results = {}
    for _ in range(3):  # interleave rounds so machine drift hits both modes
        for jobs in (1, 4):
            elapsed, res = _run(jobs)
            best[jobs] = min(best[jobs], elapsed)
            results[jobs] = res
    # compare cell by cell: pickling the whole dict is identity-sensitive
    # (in-process cells may share sub-objects, which pickle as memo refs)
    assert results[1].keys() == results[4].keys()
    for key in results[1]:
        assert pickle.dumps(results[1][key]) == pickle.dumps(results[4][key]), (
            f"jobs=4 campaign diverged from serial at {key}"
        )
    ratio = best[1] / best[4]
    rows = [
        ["jobs=1", best[1], 1.0],
        ["jobs=4", best[4], ratio],
    ]
    text = format_table(
        ["mode", "best seconds", "speedup vs serial"],
        rows,
        title=(
            f"Campaign wall-clock — {CONFIG.num_requests} reqs x "
            f"{len(TRACES)} trace x 5 schemes ({os.cpu_count()} host cores)"
        ),
    )
    entries = [
        {
            "name": "campaign.fig17_compact",
            "serial_s": best[1],
            "jobs4_s": best[4],
            "jobs4_speedup": ratio,
            "host_cores": os.cpu_count(),
            "compare": {},
        }
    ]
    save_result("campaign", text, data={"entries": entries})


def test_campaign_pipeline_repair(save_result):
    """Pipelined vs conventional repair on the Fig. 17 platform.

    The speedups are ratios of *simulated* recovery time, so — unlike
    every wall-clock number in this file — they are deterministic and
    safe to ratio-compare, hence listed under ``compare``.
    """
    t0 = time.perf_counter()
    fig = fig_pipeline_repair.compute(CONFIG)
    elapsed = time.perf_counter() - t0
    single_rs = fig.speedup("single", "RS")
    assert single_rs >= 1.5, (
        f"single-stripe RS pipeline speedup {single_rs:.2f}x below the "
        "committed 1.5x acceptance floor"
    )
    entries = [
        {
            "name": "campaign.pipeline_repair",
            "chunk_bytes": fig.chunk_bytes,
            "wall_s": elapsed,
            "rows": fig.rows,
            "compare": {
                f"{row['scenario']}_{row['scheme'].lower()}_speedup":
                    row["speedup"]
                for row in fig.rows
            },
        }
    ]
    save_result(
        "campaign_pipeline_repair",
        fig_pipeline_repair.render(fig),
        data={"entries": entries},
    )
