"""Process-parallel campaign execution with deterministic merging.

A campaign is a bag of independent (scheme, trace) cells: every cell
derives its workload trace, failure stream and planner state from the
frozen :class:`~repro.experiments.runner.ExperimentConfig` alone (the
read-only trace and failure stream are built once per trace and
process, the planner per cell), so cells can run in any order — or in
different processes — and produce identical
:class:`~repro.cluster.SimulationResult` objects.

The contract this module enforces is *byte-identity with serial*: a
campaign run with ``jobs=4`` must be indistinguishable from ``jobs=1``
in every result, metric, trace event and snapshot series (wall-clock
timer readings excepted — those measure the host, not the simulation).
Two design rules make that hold structurally rather than by luck:

1. **One code path.**  ``jobs=1`` does not take a legacy fast path; it
   runs the same per-cell isolate → run → export machinery in-process
   that a worker runs in its own process.  There is no "serial mode" to
   drift out of sync.
2. **Deterministic merge order.**  Telemetry is folded back strictly in
   task-list order (trace-major, :data:`SCHEME_ORDER` within a trace),
   never in completion order.  Counters and histogram buckets add, so
   the fold is exact; gauges keep the last writer and the max
   high-water, matching what sequential execution would have left.

Workers inherit the parent's telemetry switches (enabled flags, trace
capacity, snapshot interval) through the explicit ``flags`` payload —
never through fork-time global state — so a ``--report`` campaign
collects the same series under any job count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..cluster import SimulationResult, run_workload
from ..telemetry import METRICS, SNAPSHOTS, TRACER
from ..workloads import failures_for_trace, make_trace
from .runner import SCHEME_ORDER, ExperimentConfig, build_schemes

__all__ = ["CampaignTask", "campaign_tasks", "run_campaign_tasks", "map_tasks"]


@dataclass(frozen=True)
class CampaignTask:
    """One independent campaign cell: a scheme replaying one trace."""

    config: ExperimentConfig
    trace_name: str
    scheme_name: str


def campaign_tasks(
    config: ExperimentConfig, traces: list[str]
) -> list[CampaignTask]:
    """The campaign's cells in canonical (trace, scheme) merge order."""
    return [
        CampaignTask(config=config, trace_name=trace, scheme_name=scheme)
        for trace in traces
        for scheme in SCHEME_ORDER
    ]


# -- telemetry bookkeeping --------------------------------------------------


def _telemetry_flags() -> dict:
    """The parent's telemetry switches, shipped explicitly to workers."""
    return {
        "metrics": METRICS.enabled,
        "tracing": TRACER.enabled,
        "trace_capacity": TRACER.capacity,
        "snapshots": SNAPSHOTS.enabled,
        "snapshot_interval": SNAPSHOTS.interval,
    }


def _reset_telemetry(flags: dict) -> None:
    """Clear all collectors and set their switches to ``flags``."""
    METRICS.enabled = flags["metrics"]
    METRICS.reset()
    TRACER.enabled = flags["tracing"]
    TRACER.capacity = flags["trace_capacity"]
    TRACER.clear()
    SNAPSHOTS.enabled = flags["snapshots"]
    SNAPSHOTS.interval = flags["snapshot_interval"]
    SNAPSHOTS.clear()


def _export_telemetry() -> dict:
    return {
        "metrics": METRICS.export_state(),
        "trace": TRACER.export_state(),
        "snapshots": SNAPSHOTS.export_state(),
    }


def _merge_telemetry(state: dict) -> None:
    METRICS.merge_state(state["metrics"])
    TRACER.merge_state(state["trace"])
    SNAPSHOTS.merge_state(state["snapshots"])


# -- cell execution ---------------------------------------------------------


def _run_cell(task: CampaignTask, built: dict | None = None) -> SimulationResult:
    """Build a cell's trace/failures/planner and replay the workload.

    Trace generation and the failure stream are deterministic functions
    of the config and emit no telemetry, so the schemes of one trace
    share one build through ``built`` (the caller's dict, which lives as
    long as its campaign): a :class:`~repro.workloads.Request` is frozen
    and ``run_workload`` copies the request list before it replays.
    """
    cfg = task.config
    key = (
        task.trace_name, cfg.num_requests, cfg.num_stripes, cfg.k,
        cfg.failure_rate, cfg.seed, cfg.spatial_decay,
    )  # fmt: skip
    if built is None:
        built = {}
    if key not in built:
        built.clear()  # cells come trace-major: one build is live at a time
        trace = make_trace(
            task.trace_name,
            num_requests=cfg.num_requests,
            num_stripes=cfg.num_stripes,
            blocks_per_stripe=cfg.k,
            write_once=True,  # §IV-A.5: each write request is a new HDFS file
        )
        built[key] = trace, failures_for_trace(
            trace,
            blocks_per_stripe=cfg.k,
            rate=cfg.failure_rate,
            seed=cfg.seed,
            num_stripes=cfg.num_stripes,
            spatial_decay=cfg.spatial_decay,
        )
    trace, failures = built[key]
    scheme = build_schemes(cfg)[task.scheme_name]
    return run_workload(scheme, trace, failures, cfg.cluster, chaos=cfg.chaos)


#: a pool worker's ``built`` dict: set by the pool's initializer, so it
#: exists in worker processes only and dies with the campaign's pool
_worker_built: dict | None = None


def _init_worker() -> None:
    global _worker_built
    _worker_built = {}


def _run_cell_in_worker(task: CampaignTask) -> SimulationResult:
    return _run_cell(task, _worker_built)


def _isolated_cell(item: tuple) -> tuple:
    """Run one cell against freshly reset telemetry; export what it emitted.

    This is the single execution routine for both modes: the in-process
    serial loop calls it directly, a pool worker calls it after pickling.
    It must stay module-level so it is picklable.
    """
    task, flags, runner = item
    _reset_telemetry(flags)
    result = runner(task)
    return result, _export_telemetry()


def run_campaign_tasks(
    tasks: list, jobs: int = 1, runner: Callable | None = None
) -> list:
    """Execute campaign cells, possibly across processes; merge telemetry.

    Results come back aligned with ``tasks``; global telemetry ends up
    exactly as if the cells had run sequentially in task order — whatever
    the collectors held *before* the campaign is preserved underneath.

    ``runner`` is the per-task execution function (``None`` means the
    scheme×trace campaign cell).  It must be module-level picklable, take
    one task, and return one picklable result; the tournament experiment
    supplies its own.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    pooled = jobs > 1 and len(tasks) > 1
    if runner is None:
        runner = _run_cell_in_worker if pooled else partial(_run_cell, built={})
    flags = _telemetry_flags()
    prior = _export_telemetry()  # pre-campaign accumulations to keep
    items = [(task, flags, runner) for task in tasks]
    if pooled:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_init_worker
        ) as pool:
            payloads = list(pool.map(_isolated_cell, items))
    else:
        payloads = [_isolated_cell(item) for item in items]
    # Rebuild global telemetry deterministically: pre-existing state
    # first, then every cell's share in task order (never completion
    # order), so jobs=N and jobs=1 leave bit-identical collectors.
    _reset_telemetry(flags)
    _merge_telemetry(prior)
    for _, state in payloads:
        _merge_telemetry(state)
    return [result for result, _ in payloads]


def map_tasks(fn, tasks: list, jobs: int = 1) -> list:
    """Order-preserving, process-parallel map over independent tasks.

    The generic sibling of :func:`run_campaign_tasks` for work that
    carries no global telemetry (the durability sweeps): ``fn`` must be a
    module-level picklable function of one task, every task must be a
    pure self-contained description of its work, and results come back
    aligned with ``tasks`` regardless of completion order — so
    ``jobs=N`` is byte-identical to ``jobs=1`` whenever ``fn`` is
    deterministic per task.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]
