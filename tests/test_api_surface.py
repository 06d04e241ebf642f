"""API-surface consistency: __all__ exports exist, import graph is clean."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: every package under ``repro`` — derived, so a new one is checked from day one
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def all_modules():
    names = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        names.append(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if info.name == "__main__":
                    continue  # importing it runs the CLI
                names.append(f"{pkg_name}.{info.name}")
    return sorted(set(names))


def fresh_process(code: str) -> str:
    """stdout of ``code`` run in a new interpreter on this checkout's ``src``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout


@pytest.mark.parametrize("name", all_modules())
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_dunder_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


def test_top_level_reexports():
    from repro import ECFusion, MSRCode, ReedSolomonCode  # noqa: F401

    assert repro.__version__


def test_public_classes_documented():
    """Every top-level export carries a docstring."""
    for symbol in repro.__all__:
        if symbol.startswith("__"):
            continue
        obj = getattr(repro, symbol)
        if isinstance(obj, type) or callable(obj):
            assert obj.__doc__, f"repro.{symbol} is undocumented"


def test_des_kernel_callback_surface():
    """The callback-scheduled kernel's public names (and the ones it retired)."""
    import inspect

    from repro.chaos.engine import ChaosEngine
    from repro.cluster import (
        Cpu, Disk, Event, FIFOResource, Link, PlanExecutor, Process, Simulator,
    )

    for owner, names in (
        (Simulator, ("call_later", "schedule", "timeout", "process", "step", "run")),
        (Event, ("succeed", "fail", "settle", "wait")),
        (FIFOResource, ("use_cb", "use_ev", "use", "acquire", "release")),
        (Disk, ("read_cb", "read_ev", "write_cb", "write_ev")),
        (Link, ("transfer_cb", "transfer_ev", "stream_ev")),
        (Cpu, ("compute_cb", "compute_ev")),
    ):
        for name in names:
            assert getattr(owner, name).__doc__, f"{owner.__name__}.{name} is undocumented"
    assert isinstance(Simulator.events_scheduled, property)
    assert Simulator.events_scheduled.fset is None  # read-only
    for start in (Simulator.process, Process.__init__):
        assert "at" in inspect.signature(start).parameters
    for owner, gone in (
        (Event, "succeed_cb"), (FIFOResource, "_busy"), (FIFOResource, "_release_cb"),
        # one hold spelling: the ``yield from`` wrappers are gone
        (Disk, "read"), (Disk, "write"), (Link, "transfer"), (Cpu, "compute"),
        # the chaos path is a callback chain: no per-chunk generators, no
        # generator reachability check, no scrubber process
        (PlanExecutor, "_read_path"), (PlanExecutor, "_write_path"),
        (PlanExecutor, "check_reachable"), (ChaosEngine, "_scrub_loop"),
    ):
        assert not hasattr(owner, gone), f"{owner.__name__}.{gone} is back"


def test_codes_keep_only_the_selectable_families():
    """``repro.codes`` ships the families the policy engine selects, plus
    Hitchhiker; the unselected array codes and the thread-pool batch layer
    are gone, while the batch entry points the benchmark binds remain, as
    loops over their per-stripe twins."""
    from repro import codes
    from repro.codes import (
        FractionalRepetitionCode, HitchhikerCode, LinearVectorCode, LocalReconstructionCode,
        MSRCode, ReedSolomonCode,
    )  # fmt: skip
    from repro.fusion import FusionTransformer
    from repro.gf import CodingPlan

    assert set(codes.__all__) == {
        "CodeError", "ParameterError", "UnrecoverableError", "RepairResult",
        "ErasureCode", "LinearVectorCode",
        "ReedSolomonCode", "MSRCode", "LocalReconstructionCode",
        "FractionalRepetitionCode", "HitchhikerCode",
    }
    gone = ("evenodd", "rdp", "product", "batch")
    for name in gone:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.codes.{name}")
    assert not hasattr(LinearVectorCode, "decode_data_batch")
    for code in (FractionalRepetitionCode, LocalReconstructionCode, HitchhikerCode):
        for name in ("repair_batch", "repair_streamed"):
            assert not hasattr(code, name), f"{code.__name__}.{name} is back"
    # bench/spec.py binds them; ROADMAP 8 removes them.  Each is a loop
    # over its per-stripe twin: the batch-only algorithms stay gone.
    for owner, name in (
        (CodingPlan, "apply_batch"),
        (ReedSolomonCode, "encode_batch"), (ReedSolomonCode, "repair_batch"),
        (MSRCode, "encode_batch"), (MSRCode, "repair_batch"),
        (FusionTransformer, "rs_to_msr_batch"), (FusionTransformer, "msr_to_rs_batch"),
    ):
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name} is gone"
    for owner, gone in (
        (CodingPlan, "_BATCH_FOLD_LIMIT"),
        (LinearVectorCode, "_check_shard_stacks"),
        (FusionTransformer, "_rs_to_msr_batch"),
    ):
        assert not hasattr(owner, gone), f"{owner.__name__}.{gone} is back"
    transformer = FusionTransformer(4, 2)
    for gone in ("_trans1_plans", "_trans2_plans"):
        assert not hasattr(transformer, gone), f"FusionTransformer.{gone} is back"

    # a fresh process importing the package loads neither the deleted
    # modules nor a thread pool
    loaded = fresh_process("import sys, repro; print(*sorted(sys.modules))").split()
    assert not [m for m in loaded if m.startswith("concurrent.futures")]
    assert not {f"repro.codes.{name}" for name in gone} & set(loaded)


def test_gf256_is_the_field_not_a_parameter():
    """No function under ``repro`` takes a field width ``w``: GF(2^8) is the
    field, with one primitive polynomial and one wider-than-byte refusal.
    The repair scheduler's per-rack cap, which nothing set, stays gone."""
    import ast
    import dataclasses
    import pathlib

    from repro import gf
    from repro.cluster import ClusterConfig

    root = pathlib.Path(repro.__file__).parent
    takes_w, refusals = [], 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        refusals += text.count("is wider than GF(2^8) symbols")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                if "w" in {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    takes_w.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    assert not takes_w, takes_w
    assert refusals == 1
    assert gf.PRIMITIVE_POLY == 0x11D and not hasattr(gf, "PRIMITIVE_POLYS")
    assert "max_repairs_per_rack" not in {f.name for f in dataclasses.fields(ClusterConfig)}


# -- lazy exports: every package resolves its names on first use ------------

#: each package's ``__all__``, in order, as it stood when the exports went lazy
PACKAGE_ALL = {
    "repro": "ReedSolomonCode MSRCode LocalReconstructionCode HitchhikerCode RepairResult "
    "UnrecoverableError ECFusion FusionTransformer AdaptiveSelector CodeKind CostModel "
    "SystemProfile __version__",
    "repro.chaos": "ChaosError PartitionError SlowdownFault PartitionFault CorruptionFault "
    "NodeKillFault FaultSchedule ChaosProfile ChaosConfig PROFILES resolve_profile "
    "generate_schedule ChaosState ChaosEngine InvariantChecker InvariantReport "
    "InvariantViolation verify_conversion_safety",
    "repro.cluster": "DeadNodeError RecoveryError Event Simulator Process AllOf FIFOResource "
    "Disk Link Uplink Fabric Cpu DataNode NameNode StripeInfo PlanExecutor Client "
    "RecoveryManager RecoveryScheduler RepairJob DEFAULT_CHUNK pipeline_slices "
    "execute_pipelined Cluster ClusterConfig SimulationResult run_workload",
    "repro.codes": "CodeError ParameterError UnrecoverableError RepairResult ErasureCode "
    "LinearVectorCode ReedSolomonCode MSRCode LocalReconstructionCode "
    "FractionalRepetitionCode HitchhikerCode",
    "repro.durability": "MC_SCHEMES DurabilityConfig run_durability simulate_population "
    "format_durability_table TopologySpec TOPOLOGIES resolve_topology wilson_interval "
    "bootstrap_rate_interval rule_of_three_mttdl",
    "repro.experiments": "ExperimentConfig build_schemes format_table SCHEME_ORDER "
    "CampaignResults run_campaign set_default_jobs CampaignTask campaign_tasks "
    "run_campaign_tasks map_tasks eta_landscape lifetime parallel robustness sensitivity "
    "fig13_storage fig14_computation fig15_transmission fig16_application fig17_recovery "
    "fig18_overall fig19_cost_effective fig_pipeline_repair table4_allocation "
    "table7_summary tournament",
    "repro.fusion": "ChunkUnavailable TransformAborted SystemProfile CostModel CodeCosts "
    "CODE_FAMILIES ALWAYS_RS ALWAYS_MSR CachePolicy QueueEntry TrackingQueue CodeKind "
    "Conversion AdaptiveSelector FusionTransformer TransformCost RsToMsrResult "
    "MsrToRsResult ECFusion RecoveryReport StripeStore",
    "repro.gf": "GF GFTables PRIMITIVE_POLY get_tables as_symbols gf_add gf_mul gf_div gf_inv "
    "gf_pow matmul mat_vec identity inverse rank solve is_invertible vandermonde cauchy "
    "systematic_rs_parity apply_to_blocks apply_to_blocks_naive CodingPlan BACKEND_NAMES "
    "available_backends native_info",
    "repro.hybrid": "OpPlan PlanKind SchemePlanner StaticPlanner RSPlanner MSRPlanner "
    "LRCPlanner FRPlanner HACFSPlanner AdaptivePlanner ECFusionPlanner MultiCodePlanner "
    "PLANNERS make_planner",
    "repro.metrics": "SCHEMES AnalyticCosts CostBreakdown application_performance "
    "recovery_performance overall_performance cost_effective_ratio improvement "
    "ReliabilityModel SchemeReliability mttdl_markov ServiceMix mg1_wait mg1_response "
    "client_nic_mix",
    "repro.server": "AsyncObjectStore Arrival DISTRIBUTIONS ObjectMeta ObjectStore "
    "ServerConfig ServingResult WorkloadSpec generate_arrivals run_serving",
    "repro.telemetry": "METRICS TRACER SNAPSHOTS Counter Gauge Histogram MetricsRegistry "
    "Timer SnapshotCollector SnapshotSampler SnapshotSeries Span SpanContext "
    "TailExplanation TraceAnalysis TraceEvent TraceRecorder PHASES REPORT_SCHEMA "
    "analyze_events analyze_trace attribute_phases attribution_summary build_report "
    "build_traces critical_path default_buckets explain_tail load_events nearest_rank "
    "to_chrome_trace write_chrome_trace render_metrics_table render_prometheus "
    "serving_buckets write_report enable disable reset",
    "repro.workloads": "OpType Request Trace TraceStats SyntheticTraceConfig generate_trace "
    "zipf_weights TraceSpec TABLE_V TRACE_NAMES make_trace FailureEvent NodeFailureEvent "
    "FailureConfig BathtubPhases generate_bathtub_failures generate_failures "
    "failures_for_trace correlated_fault_times save_trace load_trace save_failures "
    "load_failures load_msr_csv",
}


def test_every_package_is_listed():
    assert sorted(PACKAGE_ALL) == PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_lazy_exports_conform(name):
    """In a process that has touched nothing else: ``__all__`` is the recorded
    list in its order, ``dir`` names every export before any is resolved, an
    unknown name raises the interpreter's own ``AttributeError``, and a star
    import binds every export."""
    out = fresh_process(
        "import importlib, json\n"
        f"pkg = importlib.import_module({name!r})\n"
        "listed = sorted(set(pkg.__all__) - set(dir(pkg)))\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "    error = None\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "star = {}\n"
        f"exec('from {name} import *', star)\n"
        "print(json.dumps([pkg.__all__, listed, error, sorted(set(pkg.__all__) - set(star))]))\n"
    )
    exports, undir, error, unbound = json.loads(out.splitlines()[-1])
    assert exports == PACKAGE_ALL[name].split()
    assert not undir, f"dir({name}) misses {undir}"
    assert error == f"module {name!r} has no attribute 'no_such_name'"
    assert not unbound, f"from {name} import * misses {unbound}"


#: what each entry point must leave unloaded: the optional layers (chaos,
#: asyncio, span analytics) and the codecs stay out of processes that never
#: run them
FOOTPRINTS = {
    "serving": (
        "from repro.server import ServerConfig, WorkloadSpec, run_serving\n"
        "result = run_serving(WorkloadSpec(target_ops=50, duration=1.0, num_objects=20,"
        " seed=1), ServerConfig())\n"
        "assert result.completed and not result.failed and not result.stats['chunk_failures']\n",
        ("asyncio", "repro.chaos.engine", "repro.chaos.invariants", "repro.codes.msr",
         "repro.gf.native", "repro.fusion.transform", "repro.telemetry.spans",
         "repro.telemetry.causal", "repro.telemetry.export"),
    ),
    # a campaign prices its repairs from the family table: it builds no codec
    "campaign": (
        "from repro.experiments import ExperimentConfig, run_campaign\n"
        "campaign = run_campaign(ExperimentConfig(num_requests=40, num_stripes=8),"
        " traces=['mds1'])\n"
        "assert all(res.recovery_latencies for res in campaign.results.values())\n",
        ("repro.experiments.fig", "repro.server", "repro.codes.msr"),
    ),
    # the MSR codec derives a node's repair plan on that node's first repair
    "fusion": (
        "import numpy as np\n"
        "from repro.fusion import ECFusion\n"
        "fusion = ECFusion(6, 3)\n"
        "fusion.write('s', np.zeros((6, 9), np.uint8))\n"
        "assert fusion.recover('s', 0).conversions\n"
        "msr = fusion.msr\n"
        "assert list(msr._repair_matrices) == [0] and list(msr._repair_fused) == [(0, 3)]\n",
        ("repro.cluster", "repro.chaos", "repro.codes.lrc", "repro.codes.fr"),
    ),
}  # fmt: skip


@pytest.mark.parametrize("entry", sorted(FOOTPRINTS))
def test_entry_point_import_footprint(entry):
    """A fresh process running one entry point loads none of the layers it
    does not use (each listed name stands for every module it prefixes)."""
    code, absent = FOOTPRINTS[entry]
    loaded = fresh_process(code + "import sys\nprint(*sorted(sys.modules))\n").split()
    leaked = [gone for gone in absent if any(m.startswith(gone) for m in loaded)]
    assert not leaked, f"{entry} loaded {leaked}"
