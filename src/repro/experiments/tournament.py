"""Cross-code tournament — the multi-code policy engine's proving ground.

Every code family (RS, MSR, LRC, FR) plus the adaptive multi-code policy
replays every Table V trace twice: once clean and once under the ``storm``
chaos profile.  Four metrics decide per-cell winners:

* **write cost** — mean application write latency;
* **recovery bytes** — bytes read from helpers per reconstruction
  (recorded straight off the executed :class:`~repro.hybrid.plans.OpPlan`
  reads, so FR's uncoded γ-byte repair and MSR's γ/r helper reads price
  exactly as the codes behave);
* **degraded p99** — tail reconstruction latency;
* **storage overhead** — stored bytes per data byte at end of run.

The *win regions* table then shows, per metric, which code wins where —
the empirical counterpart of :meth:`repro.fusion.costmodel.CostModel.score`'s
analytic regions (FR owns recovery-dominated cells, RS owns
storage/write-dominated cells, LRC the middle ground).  A healthy
tournament has at least two distinct winners; a single code dominating
every metric would mean the policy engine has nothing to adapt between.

Cells execute through :func:`repro.experiments.parallel.run_campaign_tasks`
with this module's own cell runner, so ``--jobs N`` campaigns stay
byte-identical to serial runs, telemetry included.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from ..cluster import SimulationResult, run_workload
from ..hybrid import make_planner
from ..hybrid.plans import PlanKind
from ..telemetry import METRICS, nearest_rank
from ..workloads import TRACE_NAMES, failures_for_trace, make_trace
from .parallel import run_campaign_tasks
from .runner import ExperimentConfig, format_table

__all__ = [
    "TOURNAMENT_SCHEMES",
    "TOURNAMENT_PROFILES",
    "METRIC_NAMES",
    "TournamentTask",
    "TournamentCell",
    "TournamentResults",
    "build_tournament_scheme",
    "compute",
    "render",
]

#: contenders: the four single-code baselines + the adaptive policy
TOURNAMENT_SCHEMES = ("RS", "MSR", "LRC", "FR", "Policy")

#: each (scheme, trace) pair runs once per profile
TOURNAMENT_PROFILES = ("clean", "storm")

#: metric key -> (label, unit) — lower is better for all of them
METRIC_NAMES = {
    "write_cost": ("write cost", "s"),
    "recovery_bytes": ("recovery bytes", "MiB/repair"),
    "degraded_p99": ("degraded p99", "s"),
    "storage_overhead": ("storage overhead", "x"),
}


@dataclass(frozen=True)
class TournamentTask:
    """One tournament cell: a scheme replaying one trace under one profile."""

    config: ExperimentConfig
    trace_name: str
    scheme_name: str
    profile_name: str  # "clean" | "storm"


@dataclass
class TournamentCell:
    """Measured outcome of one tournament cell."""

    scheme: str
    trace: str
    profile: str
    write_cost: float
    recovery_bytes: float  # MiB read per reconstruction
    degraded_p99: float
    storage_overhead: float
    recoveries: int
    failed_requests: int
    conversions: float
    code_fractions: dict[str, float] = field(default_factory=dict)

    def metric(self, key: str) -> float:
        return getattr(self, key)


class _RecordingPlanner:
    """Planner wrapper tallying the bytes its executed plans touch.

    Recovery bytes come straight off the RECOVERY plans' helper reads, so
    the metric reflects what the simulator actually charged — including
    conversions triggered en route, which are tallied separately.
    """

    def __init__(self, inner):
        self.inner = inner
        self.write_bytes = 0.0
        self.recovery_read_bytes = 0.0
        self.recovery_events = 0
        self.conversion_bytes = 0.0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _tally(self, plans):
        for plan in plans:
            if plan.kind is PlanKind.WRITE:
                self.write_bytes += plan.bytes_written
            elif plan.kind is PlanKind.RECOVERY:
                self.recovery_read_bytes += plan.bytes_read
                self.recovery_events += 1
            elif plan.kind is PlanKind.CONVERSION:
                self.conversion_bytes += plan.bytes_read + plan.bytes_written
        return plans

    def plan_write(self, stripe):
        return self._tally(self.inner.plan_write(stripe))

    def plan_read(self, stripe, block):
        return self._tally(self.inner.plan_read(stripe, block))

    def plan_recovery(self, stripe, block):
        return self._tally(self.inner.plan_recovery(stripe, block))

    def plan_degraded_read(self, stripe, block):
        return self._tally(self.inner.plan_degraded_read(stripe, block))


def build_tournament_scheme(config: ExperimentConfig, name: str):
    """One tournament contender; FR uses the ρk+1-node DRESS layout."""
    if name not in TOURNAMENT_SCHEMES:
        raise KeyError(f"unknown tournament scheme {name!r}")
    knobs = {"Policy": dict(queue_capacity=config.queue_capacity, margins=0.1)}
    return make_planner(
        name, config.k, config.r, config.gamma, config.profile, **knobs.get(name, {})
    )


def _percentile(samples: list[float], q: float) -> float:
    return nearest_rank(sorted(samples), q)


def _run_tournament_cell(task: TournamentTask) -> TournamentCell:
    """Replay one cell; must stay module-level picklable for ``--jobs N``."""
    cfg = task.config
    if task.profile_name == "storm":
        cfg = replace(cfg, chaos_profile="storm")
    trace = make_trace(
        task.trace_name,
        num_requests=cfg.num_requests,
        num_stripes=cfg.num_stripes,
        blocks_per_stripe=cfg.k,
        write_once=True,
    )
    failures = failures_for_trace(
        trace,
        blocks_per_stripe=cfg.k,
        rate=cfg.failure_rate,
        seed=cfg.seed,
        num_stripes=cfg.num_stripes,
        spatial_decay=cfg.spatial_decay,
    )
    scheme = _RecordingPlanner(build_tournament_scheme(cfg, task.scheme_name))
    result: SimulationResult = run_workload(
        scheme, trace, failures, cfg.cluster, chaos=cfg.chaos
    )
    if METRICS.enabled:
        METRICS.counter("tournament.cells", unit="runs").inc()
        METRICS.counter("tournament.recovery_bytes", unit="bytes").inc(
            scheme.recovery_read_bytes
        )
        METRICS.counter("tournament.conversion_bytes", unit="bytes").inc(
            scheme.conversion_bytes
        )
    mib = 1024 * 1024
    writes = result.write_latencies
    per_repair = (
        scheme.recovery_read_bytes / scheme.recovery_events / mib
        if scheme.recovery_events
        else 0.0
    )
    stats = scheme.inner.stats() if hasattr(scheme.inner, "stats") else {}
    fractions = (
        scheme.inner.selector.code_fractions()
        if hasattr(scheme.inner, "selector")
        and hasattr(scheme.inner.selector, "code_fractions")
        else {}
    )
    return TournamentCell(
        scheme=task.scheme_name,
        trace=task.trace_name,
        profile=task.profile_name,
        write_cost=sum(writes) / len(writes) if writes else 0.0,
        recovery_bytes=per_repair,
        degraded_p99=_percentile(result.recovery_latencies, 0.99),
        storage_overhead=scheme.inner.storage_overhead(),
        recoveries=scheme.recovery_events,
        failed_requests=result.failed_requests,
        conversions=float(stats.get("executed_conversions", 0.0)),
        code_fractions=fractions,
    )


@dataclass
class TournamentResults:
    """All tournament cells plus the win-region decomposition."""

    config: ExperimentConfig
    cells: dict[tuple[str, str, str], TournamentCell]  # (scheme, trace, profile)

    def get(self, scheme: str, trace: str, profile: str) -> TournamentCell:
        return self.cells[(scheme, trace, profile)]

    def traces(self) -> list[str]:
        return sorted({t for (_, t, _) in self.cells})

    def winner(self, trace: str, profile: str, metric: str) -> str:
        """Scheme with the lowest value of ``metric`` in one cell group."""
        return min(
            TOURNAMENT_SCHEMES,
            key=lambda s: (
                self.get(s, trace, profile).metric(metric),
                TOURNAMENT_SCHEMES.index(s),
            ),
        )

    def win_regions(self, metric: str) -> dict[str, list[tuple[str, str]]]:
        """metric winners -> the (trace, profile) cells they win."""
        regions: dict[str, list[tuple[str, str]]] = {}
        for profile in TOURNAMENT_PROFILES:
            for trace in self.traces():
                won = self.winner(trace, profile, metric)
                regions.setdefault(won, []).append((trace, profile))
        return regions

    def distinct_winners(self) -> set[str]:
        """Every scheme that wins at least one (cell, metric) combination."""
        out: set[str] = set()
        for metric in METRIC_NAMES:
            out.update(self.win_regions(metric))
        return out

    def to_section(self) -> dict:
        """The JSON-serialisable ``tournament`` section of a ``--report``."""
        return {
            "schemes": list(TOURNAMENT_SCHEMES),
            "profiles": list(TOURNAMENT_PROFILES),
            "metrics": dict(METRIC_NAMES),
            "cells": [
                dataclasses.asdict(self.cells[key]) for key in sorted(self.cells)
            ],
            "win_regions": {
                metric: {
                    scheme: [f"{trace}/{profile}" for trace, profile in won]
                    for scheme, won in sorted(self.win_regions(metric).items())
                }
                for metric in METRIC_NAMES
            },
            "distinct_winners": sorted(self.distinct_winners()),
        }


def compute(
    config: ExperimentConfig | None = None,
    traces: list[str] | None = None,
    jobs: int | None = None,
) -> TournamentResults:
    """Run the full tournament: schemes × traces × {clean, storm}."""
    from .simulation import _DEFAULT_JOBS

    config = config or ExperimentConfig()
    traces = traces or list(TRACE_NAMES)
    tasks = [
        TournamentTask(
            config=config, trace_name=t, scheme_name=s, profile_name=p
        )
        for p in TOURNAMENT_PROFILES
        for t in traces
        for s in TOURNAMENT_SCHEMES
    ]
    outcomes = run_campaign_tasks(
        tasks,
        jobs=_DEFAULT_JOBS[0] if jobs is None else jobs,
        runner=_run_tournament_cell,
    )
    cells = {
        (task.scheme_name, task.trace_name, task.profile_name): cell
        for task, cell in zip(tasks, outcomes)
    }
    return TournamentResults(config=config, cells=cells)


def render(results: TournamentResults) -> str:
    """Per-cell metric tables plus the win-regions section."""
    sections = []
    for profile in TOURNAMENT_PROFILES:
        rows = []
        for trace in results.traces():
            for scheme in TOURNAMENT_SCHEMES:
                cell = results.get(scheme, trace, profile)
                rows.append(
                    [
                        trace,
                        scheme,
                        f"{cell.write_cost:.4f}",
                        f"{cell.recovery_bytes:.1f}",
                        f"{cell.degraded_p99:.4f}",
                        f"{cell.storage_overhead:.3f}",
                        f"{cell.recoveries}",
                        f"{cell.conversions:.0f}",
                    ]
                )
        sections.append(
            format_table(
                [
                    "trace",
                    "scheme",
                    "write cost (s)",
                    "rec bytes (MiB)",
                    "degraded p99 (s)",
                    "storage (x)",
                    "repairs",
                    "conversions",
                ],
                rows,
                title=f"Cross-code tournament — {profile} profile",
            )
        )

    region_rows = []
    for metric, (label, unit) in METRIC_NAMES.items():
        regions = results.win_regions(metric)
        for scheme in sorted(regions):
            cells = regions[scheme]
            shown = ", ".join(f"{t}/{p}" for t, p in cells[:4])
            if len(cells) > 4:
                shown += f", … ({len(cells)} cells)"
            region_rows.append([f"{label} ({unit})", scheme, str(len(cells)), shown])
    sections.append(
        format_table(
            ["metric", "winner", "cells won", "where"],
            region_rows,
            title="Win regions (lower is better; the policy engine's map)",
        )
    )
    winners = sorted(results.distinct_winners())
    sections.append(
        f"distinct winning codes across all metrics: {len(winners)} "
        f"({', '.join(winners)})"
    )
    return "\n\n".join(sections)
