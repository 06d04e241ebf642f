"""API-surface consistency: __all__ exports exist, import graph is clean."""

import importlib
import pkgutil

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
    import os
    import subprocess
    import sys

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
    src = os.path.dirname(os.path.dirname(repro.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout.split()
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
