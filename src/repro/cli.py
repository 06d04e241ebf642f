"""Command-line interface: regenerate any figure/table of the paper.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig13 fig14          # analytic figures (fast)
    python -m repro fig16 --requests 800 # simulation figures
    python -m repro fig17 --jobs 4       # process-parallel campaign
    python -m repro table7 --k 8 6
    python -m repro all                  # the whole evaluation
    python -m repro fig16 stats          # ...plus the telemetry metrics table
    python -m repro fig16 --trace t.jsonl  # dump structured trace events
    python -m repro fig16 --report out.json  # machine-readable campaign report
    python -m repro trace-report t.jsonl   # offline span analytics on a trace
    python -m repro chaos --chaos-profile storm --chaos-seed 1 \\
        --verify-invariants --report chaos.json   # seeded fault campaign
    python -m repro serve --target-ops 500 --distribution zipfian \\
        --duration 60 --chaos-profile storm --report out.json
                                         # serving workload + SLO report
    python -m repro serve --chaos-profile storm --trace t.jsonl
    python -m repro explain t.jsonl      # where does the degraded p99 live?
    python -m repro explain t.jsonl --op get --quantile 0.999 \\
        --perfetto t.perfetto.json       # + Chrome/Perfetto span export

``--chaos-profile`` overlays a seeded fault storm (stragglers, rack
partitions, silent corruption with a background scrubber — see
``docs/chaos.md``) on *any* simulation experiment; ``chaos`` is the
dedicated campaign that also prints the durability ledger per scheme.

Simulation-backed commands share one memoised campaign per configuration,
so ``all`` costs barely more than its slowest member.

``stats`` is a pseudo-experiment: it enables the telemetry registry before
anything runs and prints the collected metrics table afterwards.  On its
own (``python -m repro stats``) it drives one compact simulation campaign
so the table is never empty.  ``--trace PATH`` additionally buffers
structured trace events and writes them to ``PATH`` as JSONL on exit —
atomically, via a temp file in the target directory, so a crashed run
never truncates an earlier trace.  ``--report PATH`` turns on metrics,
tracing *and* sim-time snapshots and writes the versioned JSON campaign
report (metric aggregates + time series + span analytics).
``trace-report PATH`` is the offline companion: it summarises an existing
JSONL trace without re-running any campaign (see ``docs/telemetry.md``
for both schemas).  ``explain PATH`` goes one level deeper on traces
recorded by ``serve --trace``: it reconstructs the causal span trees,
attributes the chosen operation's latency tail across phases (queue /
network / decode / repair-ride / retry), renders exemplar critical
paths, and can export the spans as Chrome trace-event JSON for
``ui.perfetto.dev`` (``--perfetto PATH``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable

from . import telemetry
from .chaos import PROFILES, ChaosConfig
from .durability import (
    MC_SCHEMES,
    TOPOLOGIES,
    DurabilityConfig,
    format_durability_table,
    run_durability,
)
from .server import DISTRIBUTIONS, ServerConfig, WorkloadSpec, run_serving
from .server.store import SERVER_SCHEMES
from .experiments import (
    ExperimentConfig,
    set_default_jobs,
    eta_landscape,
    lifetime,
    robustness,
    sensitivity,
    fig13_storage,
    fig14_computation,
    fig15_transmission,
    fig16_application,
    fig17_recovery,
    fig18_overall,
    fig19_cost_effective,
    fig_pipeline_repair,
    table4_allocation,
    table7_summary,
    tournament,
)

__all__ = ["main", "EXPERIMENTS", "Experiment"]


class CommandError(Exception):
    """A command refused its input; ``main`` prints the message and exits 2."""


@dataclass(frozen=True)
class Experiment:
    """One command of ``python -m repro``: a row of :data:`EXPERIMENTS`.

    description:
        What ``list`` prints beside the command's name.
    run:
        ``run(args, config) -> (text, sections)``, ``config`` being
        :func:`config_from_args` over ``defaults``.  ``text`` goes to stdout
        and ``sections`` become extra top-level ``--report`` sections, but a
        ``config`` section replaces the ``ExperimentConfig`` the report
        records.  A :class:`CommandError` exits with status 2.
    defaults:
        ``ExperimentConfig`` fields the command runs with unless a flag
        sets them.
    alone:
        The command shares an invocation with no other; commands that
        share one are each followed by a blank line.
    operand:
        The one positional argument the command takes, as ``list`` shows
        it (``PATH``; the value is ``args.experiments[1]``), or ``None``.
    """

    description: str
    run: Callable[[argparse.Namespace, ExperimentConfig], tuple[str, dict]]
    defaults: dict = field(default_factory=dict)
    alone: bool = False
    operand: str | None = None


def _per_k(module, joint: bool = True) -> Callable:
    """An analytic row: ``module.compute(k)`` for every ``--k``, rendered as
    one ``joint`` table or as one block per width, split by blank lines."""

    def run(args: argparse.Namespace, config: ExperimentConfig):
        results = [module.compute(k) for k in args.k]
        if joint:
            return module.render(results), {}
        return "\n\n".join(module.render(result) for result in results), {}

    return run


def _computed(module) -> Callable:
    """A row that prints ``module.render(module.compute(config))``."""

    def run(args: argparse.Namespace, config: ExperimentConfig):
        return module.render(module.compute(config)), {}

    return run


def _chaos(args: argparse.Namespace, config: ExperimentConfig):
    return robustness.render_chaos(robustness.compute_chaos(config)), {}


def _table7(args: argparse.Namespace, config: ExperimentConfig):
    return table7_summary.render(table7_summary.compute(config, ks=tuple(args.k))), {}


def _tournament(args: argparse.Namespace, config: ExperimentConfig):
    results = tournament.compute(config)
    return tournament.render(results), {"tournament": results.to_section()}


def _stats(args: argparse.Namespace, config: ExperimentConfig):
    """Standalone ``stats``: one compact fig16 campaign (fig16 exercises
    every layer), so the metrics table ``main`` prints last is never empty."""
    fig16_application.compute(config)
    return "", {}


def _serve(args: argparse.Namespace, config: ExperimentConfig):
    """The ``serve`` experiment: one seeded serving workload + SLO report.

    Shares the figure campaigns' telemetry plumbing (``--trace`` /
    ``--report`` probing included); the report gains a top-level
    ``serving`` section with exact p50/p99/p999 latency per operation.
    """
    try:
        spec = WorkloadSpec(
            target_ops=args.target_ops,
            duration=args.duration,
            read_fraction=args.read_fraction,
            distribution=args.distribution,
            num_objects=args.objects,
            object_size=(
                args.object_size * 1024 * 1024
                if args.object_size is not None
                else None
            ),
            seed=args.seed if args.seed is not None else 7,
            connections=args.connections,
            mode=args.mode,
            workers=args.workers,
        )
        server = ServerConfig(scheme=args.scheme, failure_rate=args.chunk_failure_rate)
    except ValueError as exc:
        raise CommandError(f"invalid serve configuration: {exc}") from exc
    chaos = None
    if args.chaos_profile is not None:
        chaos = ChaosConfig(
            profile=args.chaos_profile,
            seed=args.chaos_seed if args.chaos_seed is not None else 0,
        )
    result = run_serving(spec, server, chaos)
    report_config = {
        "server": dataclasses.asdict(server),
        "workload": dataclasses.asdict(spec),
        "chaos": dataclasses.asdict(chaos) if chaos is not None else None,
    }
    return result.render(), {"config": report_config, "serving": result.to_dict()}


def _durability(args: argparse.Namespace, config: ExperimentConfig):
    """The ``durability`` experiment: a Monte-Carlo MTTDL/PDL campaign.

    Fast-forwards years of seeded failure/repair traces over the stripe
    population (no per-event DES), per scheme, on the chosen topology.
    ``--report`` adds a top-level ``durability`` section with the
    per-scheme estimates and confidence intervals; ``--jobs N`` shards
    the population across processes byte-identically to serial.
    """
    try:
        durability = DurabilityConfig(
            stripes=args.stripes if args.stripes is not None else 100_000,
            years=args.years,
            k=args.k[0] if len(args.k) == 1 else 8,
            seed=args.seed if args.seed is not None else 7,
            topology=TOPOLOGIES[args.topology],
            repair_distribution=args.repair_dist,
        )
    except ValueError as exc:
        raise CommandError(f"invalid durability configuration: {exc}") from exc
    section = run_durability(durability, schemes=tuple(args.schemes), jobs=args.jobs)
    sections = {"config": dataclasses.asdict(durability), "durability": section}
    return format_durability_table(section), sections


def _trace_report(args: argparse.Namespace, config: ExperimentConfig):
    """The ``trace-report PATH`` pseudo-experiment (offline span analytics)."""
    try:
        analysis = telemetry.analyze_trace(args.experiments[1])
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot analyze trace: {exc}") from exc
    return analysis.render(), {}


def _explain(args: argparse.Namespace, config: ExperimentConfig):
    """The ``explain PATH`` pseudo-experiment (causal tail attribution).

    Loads a JSONL trace recorded by ``serve --trace``, reconstructs the
    causal span trees, and prints where the chosen operation's latency
    tail lives — an aggregate phase table plus exemplar critical paths
    whose segments sum exactly to each request's duration.
    """
    try:
        events = telemetry.load_events(args.experiments[1])
        explanation = telemetry.explain_tail(
            events, op=args.op, q=args.quantile, exemplars=args.exemplars
        )
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot explain trace: {exc}") from exc
    if args.perfetto is not None:
        count = telemetry.write_chrome_trace(args.perfetto, events)
        print(f"wrote {count} spans to {args.perfetto}", file=sys.stderr)
    return explanation.render(), {}


#: name -> row; ``list``, ``all`` and every name check read this table
EXPERIMENTS: dict[str, Experiment] = {
    "fig13": Experiment("storage cost vs hybrid ratio (analytic)", _per_k(fig13_storage)),
    "fig14": Experiment("computational cost (analytic)", _per_k(fig14_computation)),
    "fig15": Experiment("transmission cost (analytic)", _per_k(fig15_transmission)),
    "fig16": Experiment(
        "application performance (simulation)", _computed(fig16_application)
    ),
    "fig17": Experiment("recovery performance (simulation)", _computed(fig17_recovery)),
    "fig18": Experiment("overall performance (simulation)", _computed(fig18_overall)),
    "fig19": Experiment(
        "cost-effective ratio (simulation)", _computed(fig19_cost_effective)
    ),
    "pipeline": Experiment(
        "pipelined vs conventional repair (simulation)", _computed(fig_pipeline_repair)
    ),
    "eta": Experiment(
        "η threshold landscape over (λ, α) (analytic extension)",
        _per_k(eta_landscape, joint=False),
    ),
    "lifetime": Experiment(
        "bathtub-curve adaptation + idle-expiry extension",
        _computed(lifetime),
        lifetime.SIZING,
    ),
    "sensitivity": Experiment(
        "EC-Fusion gain vs RS across failure weights",
        _computed(sensitivity),
        sensitivity.SIZING,
    ),
    "robustness": Experiment(
        "headline gains across workload seeds", _computed(robustness), robustness.SIZING
    ),
    # sized like the robustness experiment unless a flag sizes it
    "chaos": Experiment(
        "seeded fault-injection campaign + invariant harness", _chaos, robustness.SIZING
    ),
    "table4": Experiment(
        "code allocation per workload category (analytic)",
        _per_k(table4_allocation, joint=False),
    ),
    "table7": Experiment("improvement summary, k in {6,8} (simulation)", _table7),
    "tournament": Experiment(
        "cross-code tournament: RS/MSR/LRC/FR/policy win regions (simulation)", _tournament
    ),
    "stats": Experiment(
        "telemetry metrics table for everything run this invocation",
        _stats,
        {"num_requests": 150, "num_stripes": 24},
    ),
    "serve": Experiment(
        "object-store serving workload with SLO latency report", _serve, alone=True
    ),
    "durability": Experiment(
        "Monte-Carlo MTTDL/PDL campaign over a hierarchical topology",
        _durability,
        alone=True,
    ),
    "trace-report": Experiment(
        "span analytics for an existing JSONL trace",
        _trace_report,
        alone=True,
        operand="PATH",
    ),
    "explain": Experiment(
        "causal tail attribution for a serve --trace file",
        _explain,
        alone=True,
        operand="PATH",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the EC-Fusion paper's evaluation figures/tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            "experiment names (fig13..fig19, table7), 'all', 'list', 'stats', "
            "'serve', 'trace-report PATH', or 'explain PATH'"
        ),
    )
    parser.add_argument("--k", type=int, nargs="+", default=[6, 8], help="stripe widths")
    parser.add_argument(
        "--requests", type=int, default=None, help="application requests per run"
    )
    parser.add_argument("--stripes", type=int, default=None, help="working-set stripes")
    parser.add_argument(
        "--failure-rate", type=float, default=None, help="failures per request"
    )
    parser.add_argument("--seed", type=int, default=None, help="workload seed")
    parser.add_argument(
        "--chaos-profile",
        choices=sorted(PROFILES),
        default=None,
        help=(
            "inject a seeded fault storm into every simulation run "
            "(stragglers / partitions / corruption / storm)"
        ),
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=None, help="fault-schedule seed (default 0)"
    )
    parser.add_argument(
        "--verify-invariants",
        action="store_true",
        help=(
            "sweep durability/metadata/conversion invariants during chaos "
            "runs and report violations"
        ),
    )
    parser.add_argument(
        "--pipeline-chunk",
        type=float,
        default=None,
        metavar="MIB",
        help=(
            "stream repairs as hop-by-hop chunk pipelines with this chunk "
            "size in MiB (enables the risk-ordered recovery scheduler)"
        ),
    )
    parser.add_argument(
        "--repair-scheduler",
        action="store_true",
        help=(
            "batch repairs through the risk-ordered recovery scheduler "
            "without pipelining (implied by --pipeline-chunk)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes per simulation campaign (default 1); every "
            "job count produces byte-identical results and telemetry"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record structured trace events and write them to PATH as JSONL",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help=(
            "write a machine-readable campaign report (metrics + sim-time "
            "snapshots + span analytics) to PATH as versioned JSON"
        ),
    )
    serve = parser.add_argument_group(
        "serve", "object-store serving workload (the 'serve' experiment)"
    )
    serve.add_argument(
        "--target-ops",
        type=float,
        default=200.0,
        metavar="OPS",
        help="offered load in operations per second (open-loop Poisson rate)",
    )
    serve.add_argument(
        "--distribution",
        choices=DISTRIBUTIONS,
        default="zipfian",
        help="key popularity: zipfian / latest / uniform",
    )
    serve.add_argument(
        "--read-fraction",
        type=float,
        default=0.95,
        help="fraction of operations that are gets (rest are puts)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="simulated seconds of arrivals",
    )
    serve.add_argument(
        "--objects", type=int, default=64, help="preloaded working-set size"
    )
    serve.add_argument(
        "--object-size",
        type=float,
        default=None,
        metavar="MIB",
        help="object size in MiB (default: exactly one stripe)",
    )
    serve.add_argument(
        "--scheme",
        choices=SERVER_SCHEMES,
        default="EC-Fusion",
        help="erasure-coding scheme the store fronts",
    )
    serve.add_argument(
        "--chunk-failure-rate",
        type=float,
        default=0.2,
        metavar="PER_SEC",
        help="seeded Poisson chunk failures per simulated second (0 = none)",
    )
    serve.add_argument(
        "--connections",
        type=int,
        default=None,
        metavar="N",
        help="frontend connection pool size (default: unbounded)",
    )
    serve.add_argument(
        "--mode",
        choices=("open", "closed"),
        default="open",
        help="open-loop (Poisson arrivals) or closed-loop (fixed worker pool)",
    )
    serve.add_argument(
        "--workers", type=int, default=8, help="closed-loop worker count"
    )
    durability = parser.add_argument_group(
        "durability",
        "Monte-Carlo durability campaign (the 'durability' experiment)",
    )
    durability.add_argument(
        "--years",
        type=float,
        default=10.0,
        metavar="Y",
        help="simulated horizon per stripe in years",
    )
    durability.add_argument(
        "--topology",
        choices=sorted(TOPOLOGIES),
        default="flat",
        help=(
            "failure-domain hierarchy: flat (matches the analytic model), "
            "rack (ToR oversubscription + rack bursts), geo (3 DCs)"
        ),
    )
    durability.add_argument(
        "--schemes",
        nargs="+",
        choices=MC_SCHEMES,
        default=list(MC_SCHEMES),
        metavar="SCHEME",
        help=f"schemes to sweep (default: all of {', '.join(MC_SCHEMES)})",
    )
    durability.add_argument(
        "--repair-dist",
        choices=("exponential", "fixed"),
        default="exponential",
        help=(
            "repair-time distribution: exponential matches the Markov "
            "chain's memoryless repair, fixed uses the cost model's "
            "deterministic duration"
        ),
    )
    explain = parser.add_argument_group(
        "explain", "causal tail attribution on a trace (the 'explain' command)"
    )
    explain.add_argument(
        "--op",
        choices=("get", "put", "delete", "degraded", "repair"),
        default="degraded",
        help=(
            "which operation's tail to attribute: a request op, 'degraded' "
            "(gets that hit a lost chunk), or 'repair' (background recovery)"
        ),
    )
    explain.add_argument(
        "--quantile",
        type=float,
        default=0.99,
        metavar="Q",
        help="latency quantile defining the tail (exact nearest-rank)",
    )
    explain.add_argument(
        "--exemplars",
        type=int,
        default=3,
        metavar="N",
        help="slowest requests to render with full critical paths",
    )
    explain.add_argument(
        "--perfetto",
        metavar="PATH",
        default=None,
        help=(
            "also export every causal span as Chrome trace-event JSON "
            "(loadable at ui.perfetto.dev)"
        ),
    )
    return parser


def config_from_args(args: argparse.Namespace, **defaults) -> ExperimentConfig:
    """The campaign configuration: the flags over ``defaults`` over
    ``ExperimentConfig()`` — a flag always wins over a row default."""
    chunk = args.pipeline_chunk
    flags = {
        "num_requests": args.requests,
        "num_stripes": args.stripes,
        "failure_rate": args.failure_rate,
        "seed": args.seed,
        "chaos_profile": args.chaos_profile,
        "chaos_seed": args.chaos_seed,
        "verify_invariants": args.verify_invariants or None,
        "pipeline_chunk": None if chunk is None else chunk * 1024 * 1024,
        "repair_scheduler": args.repair_scheduler or None,
    }
    overrides = dict(defaults)
    overrides.update((name, value) for name, value in flags.items() if value is not None)
    return ExperimentConfig(**overrides)


def _probe_output(path: str) -> str | None:
    """Fail fast on an unwritable output path: the error, or ``None``.

    Stages and removes a temp file beside ``path``, as the atomic writers
    of :mod:`repro.telemetry` do, never touching a file already at ``path``.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".probe-")
    except OSError as exc:
        return str(exc)
    os.close(fd)
    os.unlink(tmp)
    return None


def _refuse(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = list(args.experiments)

    if names == ["list"]:
        for name, row in EXPERIMENTS.items():
            usage = f"{name} {row.operand}" if row.operand else name
            print(f"  {usage:18s} {row.description}")
        return 0

    head = EXPERIMENTS.get(names[0])
    if head is not None and head.operand is not None:
        if len(names) != 2:
            return _refuse(f"usage: python -m repro {names[0]} {head.operand}")
        names = names[:1]
    # stats adds the metrics table; named alone, it runs its own campaign
    want_stats = "stats" in names
    names = [n for n in names if n != "stats"]
    unknown = [n for n in names if n not in EXPERIMENTS and n != "all"]
    if unknown:
        return _refuse(
            f"unknown experiment(s): {', '.join(unknown)}\n"
            f"choose from: {', '.join(EXPERIMENTS)} | all | list"
        )
    alone = [n for n in names if n in EXPERIMENTS and EXPERIMENTS[n].alone]
    if alone and (len(names) > 1 or want_stats):
        return _refuse(f"'{alone[0]}' runs alone: it shares an invocation with nothing")
    if "all" in names:
        names = [n for n, row in EXPERIMENTS.items() if not row.alone and n != "stats"]
    if args.jobs < 1:
        return _refuse("--jobs must be >= 1")
    names = names or ["stats"]

    for kind, path in (("trace", args.trace), ("report", args.report),
                       ("perfetto", args.perfetto)):
        error = None if path is None else _probe_output(path)
        if error is not None:
            return _refuse(f"cannot write {kind} file: {error}")

    tracing = args.trace is not None or args.report is not None
    if want_stats or tracing:
        telemetry.enable(metrics=True, tracing=tracing, snapshots=args.report is not None)
    # one switch covers every simulation-backed experiment (and the
    # chaos sweep): their compute() signatures stay parallelism-free
    set_default_jobs(args.jobs)

    sections: dict = {}
    for name in names:
        row = EXPERIMENTS[name]
        try:
            text, extra = row.run(args, config_from_args(args, **row.defaults))
        except CommandError as exc:
            return _refuse(str(exc))
        if text:
            print(text if row.alone else text + "\n")
        sections.update(extra)
    # one experiment: the report records the config it ran; several: the flags
    defaults = EXPERIMENTS[names[0]].defaults if len(names) == 1 else {}
    report_config = sections.pop("config", None) or dataclasses.asdict(
        config_from_args(args, **defaults)
    )

    if args.trace is not None:
        count = telemetry.TRACER.dump_jsonl(args.trace)
        print(f"wrote {count} trace events to {args.trace}", file=sys.stderr)
    if args.report is not None:
        report = telemetry.build_report(
            experiments=names, config=report_config, extra=sections or None
        )
        telemetry.write_report(args.report, report)
        print(f"wrote report to {args.report}", file=sys.stderr)
    if want_stats:
        print(telemetry.render_metrics_table())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
