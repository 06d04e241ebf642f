"""Cross-code tournament benchmark — the policy engine's win-region map.

One compact seeded tournament (two Table V traces × clean/storm × five
contenders) whose ``compare`` numbers are pure functions of the seeded
simulation — no wall-clock anywhere; the committed
``benchmarks/results/tournament_win_regions.json`` holds the reference:

* FR's and the policy's recovery bytes per repair relative to RS — the
  headline repair-traffic result (FR reads exactly γ, RS reads k·γ);
* the policy's write cost relative to RS — adaptation must not tax the
  write path;
* the policy's end-of-run storage overhead — it must sit well below FR's
  replication-grade ρ while keeping FR-grade repair on the hot stripes;
* the number of distinct winning codes across all metrics — the
  multi-code premise itself (≥ 2, else there is nothing to adapt
  between).
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig, tournament

TRACES = ["rsrch0", "web1"]


def test_tournament_win_regions(save_result):
    config = ExperimentConfig(num_requests=200, num_stripes=32)
    results = tournament.compute(config, traces=TRACES)
    text = tournament.render(results)

    def mean_metric(scheme: str, metric: str) -> float:
        cells = [
            results.get(scheme, t, p)
            for p in tournament.TOURNAMENT_PROFILES
            for t in TRACES
        ]
        return sum(c.metric(metric) for c in cells) / len(cells)

    rs_bytes = mean_metric("RS", "recovery_bytes")
    rs_write = mean_metric("RS", "write_cost")
    winners = results.distinct_winners()
    assert len(winners) >= 2, (
        f"tournament degenerated to a single winning code: {winners}"
    )
    assert mean_metric("FR", "recovery_bytes") < rs_bytes / 4, (
        "FR's uncoded repair should read far less than RS's k·γ"
    )

    entries = [
        {
            "name": "tournament.win_regions",
            "config": {
                "k": config.k,
                "r": config.r,
                "num_requests": config.num_requests,
                "num_stripes": config.num_stripes,
                "traces": TRACES,
                "profiles": list(tournament.TOURNAMENT_PROFILES),
                "seed": config.seed,
            },
            "winners": sorted(winners),
            "compare": {
                "fr_recovery_bytes_vs_rs": mean_metric("FR", "recovery_bytes")
                / rs_bytes,
                "policy_recovery_bytes_vs_rs": mean_metric(
                    "Policy", "recovery_bytes"
                )
                / rs_bytes,
                "policy_write_cost_vs_rs": mean_metric("Policy", "write_cost")
                / rs_write,
                "policy_storage_overhead": mean_metric(
                    "Policy", "storage_overhead"
                ),
                "distinct_winners": float(len(winners)),
            },
        }
    ]
    save_result("tournament_win_regions", text, data={"entries": entries})
