"""Lifetime-adaptation extension — EC-Fusion over a bathtub failure curve.

HeART (paper ref. [23]) changes codes with disk-reliability *phases*; the
paper excludes it as a long-term mechanism.  Replaying a device lifetime
(infancy burst → long useful-life lull → wearout burst) against EC-Fusion
exposes a genuine limitation of Algorithm 1 as written: Queue2 evictions
fire only on *insertion* pressure, so the MSR-resident set — and its
storage premium — survives the lull untouched (no new failures ⇒ no
evictions ⇒ no reversions).

The experiment therefore compares two planners phase by phase:

* **paper** — plain Algorithm 1;
* **idle-expiry** — our extension: Queue2 entries untouched for
  ``idle_window`` selector events expire, reverting their stripes to RS,
  which drains the MSR set (and ρ) during the lull, HeART-style.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import run_workload
from ..hybrid import ECFusionPlanner
from ..workloads import BathtubPhases, generate_bathtub_failures, make_trace
from .runner import ExperimentConfig, build_schemes, format_table

__all__ = ["PhaseSnapshot", "LifetimeResult", "compute", "render", "DEFAULT_PHASES"]

DEFAULT_PHASES = BathtubPhases(
    infancy_duration=120.0,
    useful_duration=900.0,
    wearout_duration=120.0,
    infancy_rate=0.5,
    useful_rate=0.0,  # a clean lull shows the pinning starkly
    wearout_rate=0.5,
)
#: the workload size the replay runs at when called without a config
SIZING = {"num_requests": 120, "num_stripes": 32}


@dataclass
class PhaseSnapshot:
    """One planner's state at the end of one lifetime phase."""

    variant: str
    phase: str
    failures: int
    msr_stripes: int
    storage_overhead: float
    mean_recovery_latency: float


@dataclass
class LifetimeResult:
    snapshots: list[PhaseSnapshot]

    def msr_count(self, variant: str, phase: str) -> int:
        return next(
            s.msr_stripes
            for s in self.snapshots
            if s.variant == variant and s.phase == phase
        )

    def paper_set_pinned_through_lull(self) -> bool:
        """Plain Algorithm 1: the lull does not shrink the MSR set."""
        return self.msr_count("paper", "useful") >= self.msr_count("paper", "infancy")

    def extension_drains_in_lull(self) -> bool:
        """Idle expiry: the lull empties the MSR set, wearout refills it."""
        return (
            self.msr_count("idle-expiry", "useful")
            < self.msr_count("idle-expiry", "infancy")
            and self.msr_count("idle-expiry", "wearout")
            > self.msr_count("idle-expiry", "useful")
        )


def _drive(planner, config, failures, boundaries, variant, trace_name):
    snapshots = []
    start = 0.0
    for idx, (phase_name, end) in enumerate(
        zip(("infancy", "useful", "wearout"), boundaries)
    ):
        segment = [f for f in failures if start <= f.time < end]
        trace = make_trace(
            trace_name,
            num_requests=config.num_requests,
            num_stripes=config.num_stripes,
            blocks_per_stripe=config.k,
            seed=config.seed + idx,
            write_once=True,
        )
        result = run_workload(planner, trace, segment, config.cluster)
        stripes = len(planner.resident)
        snapshots.append(
            PhaseSnapshot(
                variant=variant,
                phase=phase_name,
                failures=len(segment),
                msr_stripes=round(planner.code_fractions()["msr"] * stripes),
                storage_overhead=planner.storage_overhead(),
                mean_recovery_latency=result.epsilon2,
            )
        )
        start = end
    return snapshots


def compute(
    config: ExperimentConfig | None = None,
    phases: BathtubPhases = DEFAULT_PHASES,
    trace_name: str = "web1",
    idle_window: int = 60,
) -> LifetimeResult:
    """Drive both planner variants through the three bathtub phases."""
    config = config or ExperimentConfig(**SIZING)
    failures = generate_bathtub_failures(
        phases,
        num_stripes=config.num_stripes,
        blocks_per_stripe=config.k,
        spatial_decay=25.0,
        seed=config.seed,
    )
    boundaries = (
        phases.infancy_duration,
        phases.infancy_duration + phases.useful_duration,
        phases.horizon,
    )
    snapshots: list[PhaseSnapshot] = []
    paper = build_schemes(config)["EC-Fusion"]
    snapshots += _drive(paper, config, failures, boundaries, "paper", trace_name)
    extended = ECFusionPlanner(
        config.k,
        config.r,
        config.gamma,
        profile=config.profile,
        queue_capacity=config.queue_capacity,
        idle_window=idle_window,
    )
    snapshots += _drive(
        extended, config, failures, boundaries, "idle-expiry", trace_name
    )
    return LifetimeResult(snapshots=snapshots)


def render(result: LifetimeResult) -> str:
    rows = [
        [
            s.variant,
            s.phase,
            s.failures,
            s.msr_stripes,
            round(s.storage_overhead, 3),
            round(s.mean_recovery_latency, 3),
        ]
        for s in result.snapshots
    ]
    table = format_table(
        ["variant", "lifetime phase", "failures", "MSR stripes", "rho", "eps2 (s)"],
        rows,
        title="Lifetime adaptation — EC-Fusion across the bathtub curve",
    )
    return table + (
        f"\nplain Algorithm 1 keeps its MSR set through the lull: "
        f"{result.paper_set_pinned_through_lull()}; "
        f"idle-expiry drains it and re-adapts at wearout: "
        f"{result.extension_drains_in_lull()}"
    )
