"""Robustness extensions — seed sweeps and chaos campaigns.

The paper reports single-run numbers under clean failure streams.  Two
extensions probe how robust the reproduction's conclusions are:

* :func:`compute`/:func:`render` rerun the campaign under several
  independent trace/failure seeds and report the mean ± std of
  EC-Fusion's overall-performance gain over each baseline, verifying the
  dominance pattern is a property of the design and not of one lucky
  seed;
* :func:`compute_chaos`/:func:`render_chaos` rerun it under a seeded
  fault-injection storm (stragglers, partitions, silent corruption — see
  :mod:`repro.chaos`) with the invariant harness on, reporting per-scheme
  performance *and* the durability ledger: failed requests, repair
  retries, chunks given up on, and invariant sweeps/violations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import mean, stdev

from ..metrics import improvement
from .runner import SCHEME_ORDER, ExperimentConfig, format_table
from .simulation import run_campaign

__all__ = [
    "RobustnessResult",
    "compute",
    "render",
    "ChaosCampaignResult",
    "compute_chaos",
    "render_chaos",
]

BASELINES = ("RS", "MSR", "LRC", "HACFS")
DEFAULT_SEEDS = (7, 11, 23)
#: the workload size both campaigns run at when called without a config
SIZING = {"num_requests": 300, "num_stripes": 48}


@dataclass
class RobustnessResult:
    """Per-baseline gain statistics over seeds (aggregated across traces)."""

    seeds: tuple[int, ...]
    trace: str
    samples: dict[str, list[float]]  # baseline -> gain per seed

    def mean_gain(self, baseline: str) -> float:
        return mean(self.samples[baseline])

    def std_gain(self, baseline: str) -> float:
        vals = self.samples[baseline]
        return stdev(vals) if len(vals) > 1 else 0.0

    def always_dominates(self, baseline: str, slack: float = 0.02) -> bool:
        """EC-Fusion never loses to the baseline by more than ``slack``."""
        return all(g > -slack for g in self.samples[baseline])


def compute(
    config: ExperimentConfig | None = None,
    trace: str = "mds1",
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
) -> RobustnessResult:
    config = config or ExperimentConfig(**SIZING)
    samples: dict[str, list[float]] = {b: [] for b in BASELINES}
    for seed in seeds:
        campaign = run_campaign(replace(config, seed=seed), traces=[trace])
        fusion = campaign.get("EC-Fusion", trace)
        for baseline in BASELINES:
            base = campaign.get(baseline, trace)
            samples[baseline].append(improvement(base.overall, fusion.overall))
    return RobustnessResult(seeds=tuple(seeds), trace=trace, samples=samples)


def render(result: RobustnessResult) -> str:
    rows = [
        [
            baseline,
            f"{result.mean_gain(baseline) * 100:+.2f}%",
            f"{result.std_gain(baseline) * 100:.2f}%",
            result.always_dominates(baseline),
        ]
        for baseline in BASELINES
    ]
    return format_table(
        ["baseline", "mean gain", "std over seeds", "never loses"],
        rows,
        title=(
            f"Robustness — EC-Fusion overall gain on MSR-{result.trace} "
            f"across seeds {result.seeds}"
        ),
    )


@dataclass
class ChaosCampaignResult:
    """One seeded chaos campaign over every scheme on one trace."""

    profile: str
    chaos_seed: int
    trace: str
    verify_invariants: bool
    results: dict[str, "object"]  # scheme -> SimulationResult

    @property
    def total_violations(self) -> int:
        return sum(len(r.invariant_violations) for r in self.results.values())


def compute_chaos(
    config: ExperimentConfig | None = None,
    trace: str = "mds1",
) -> ChaosCampaignResult:
    """Run the scheme×trace campaign under a seeded chaos storm.

    Uses the config's chaos knobs; a config without a profile gets the
    ``storm`` preset with invariant checking on — this experiment exists
    to demonstrate faults, so running it fault-free would be pointless.
    """
    config = config or ExperimentConfig(**SIZING)
    if config.chaos_profile is None:
        config = replace(config, chaos_profile="storm", verify_invariants=True)
    campaign = run_campaign(config, traces=[trace])
    return ChaosCampaignResult(
        profile=config.chaos_profile,
        chaos_seed=config.chaos_seed,
        trace=trace,
        verify_invariants=config.verify_invariants,
        results={s: campaign.get(s, trace) for s in SCHEME_ORDER},
    )


def render_chaos(result: ChaosCampaignResult) -> str:
    first = next(iter(result.results.values()))
    summary = first.chaos or {}
    scheduled = summary.get("scheduled", {})
    storm = ", ".join(f"{kind}={count}" for kind, count in scheduled.items() if count)
    rows = []
    for scheme in SCHEME_ORDER:
        r = result.results[scheme]
        chaos = r.chaos or {}
        rows.append(
            [
                scheme,
                r.overall,
                r.failed_requests,
                chaos.get("repair_retries", 0),
                chaos.get("scrub", {}).get("detected", 0),
                len(r.unrecoverable),
                r.invariant_checks,
                len(r.invariant_violations),
            ]
        )
    table = format_table(
        [
            "scheme",
            "overall eps",
            "failed reqs",
            "retries",
            "scrub hits",
            "unrecov",
            "inv checks",
            "violations",
        ],
        rows,
        title=(
            f"Chaos campaign — profile '{result.profile}' "
            f"(chaos seed {result.chaos_seed}, {storm or 'no faults scheduled'}) "
            f"on MSR-{result.trace}"
        ),
    )
    verdict = (
        "invariants: all sweeps clean (durability, metadata, conversion safety)"
        if result.verify_invariants and result.total_violations == 0
        else (
            f"invariants: {result.total_violations} VIOLATION(S) — inspect "
            "SimulationResult.invariant_violations"
            if result.verify_invariants
            else "invariants: not checked (enable with --verify-invariants)"
        )
    )
    return f"{table}\n{verdict}"
