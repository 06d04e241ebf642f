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
