"""Checks of the benchmark itself.

Run explicitly — ``python -m pytest bench/selftest.py`` — it is not part
of the tier-1 test paths (the quick run takes about half a minute).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv], capture_output=True, text=True, cwd=ROOT
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_benchmark_json_is_generated_from_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_contract_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert len(spec.END_TO_END) <= 16
    assert 1 <= doc["run_seconds"] <= 60
    names = [x["name"] for part in ("workloads", "end_to_end", "per_layer") for x in doc[part]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for part in ("end_to_end", "per_layer") for m in doc[part])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    # --compare judges by ISSUE 11's bounds, whatever the contract file carries
    assert [spec.END_TO_END[n]["bound"] for n in spec.GATED] == [0.15, 0.10, 0.10]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_per_layer_metric_names_its_target():
    for name, m in spec.PER_LAYER.items():
        for metric, workload in m["moves"]:
            assert metric in spec.END_TO_END, (name, metric)
            assert workload in spec.END_TO_END[metric]["on"], (name, metric, workload)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = bench("--quick", "--trace", "--out", str(out))
    return json.loads(out.read_text()), proc.stdout


def test_quick_run_yields_every_declared_cell(quick):
    results, _ = quick
    for workload in spec.WORKLOADS:
        record = results["workloads"][workload]
        assert record["correct"], record["problems"]
        for metric, m in spec.END_TO_END.items():
            assert (metric in record["end_to_end"]) == (workload in m["on"]), (workload, metric)
        missing = set(spec.PER_LAYER) - set(record["per_layer"]) - set(record["traced"]["probes_unavailable"])
        # workload-specific cells are absent where they do not apply
        missing = {
            m for m in missing
            if spec.PER_LAYER[m]["layer"] != "end_to_end"
            and not (m.startswith("server.ladder.") and workload != "serve_steady")
            and not (m == "experiments.jobs2_speedup" and workload != "campaign_fig17")
        }
        assert not missing, (workload, missing)


def test_quick_run_verifies_bytes_and_keeps_layers_apart(quick):
    results, text = quick
    for workload, record in results["workloads"].items():
        layer = record["per_layer"]
        real_bytes = workload in spec.BYTES
        assert (layer["gf.apply.calls"] > 0) == real_bytes
        assert (layer["codes.rs.encode.calls"] > 0) == real_bytes
        assert (layer["chaos.faults_applied"] > 0) == (workload == "serve_storm")
        assert record["failed"] == 0
        if workload != "serve_storm":
            assert record["end_to_end"]["failed_share"]["value"] == 0
    assert "lateness is 0 s by construction" in text


def test_self_time_is_a_span_minus_its_children():
    """outer() holds inner() twice; each side's self time is its own sleep."""
    import time
    import types

    from boundaries import Tracer

    mod = types.ModuleType("bench_selftest_target")
    mod.inner = lambda: time.sleep(0.02)
    mod.outer = lambda: (mod.inner(), time.sleep(0.03), mod.inner())
    sys.modules[mod.__name__] = mod
    tracer = Tracer()
    tracer.install([
        {"group": "outer", "target": "bench_selftest_target.outer"},
        {"group": "inner", "target": "bench_selftest_target.inner"},
    ])
    with tracer:
        mod.outer()
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    assert 0.04 <= summary["inner"]["self_s"] < 0.08
    assert 0.03 <= summary["outer"]["self_s"] < 0.06
    assert summary["outer"]["total_s"] >= summary["inner"]["self_s"] + summary["outer"]["self_s"] - 1e-9
    assert summary["bench.harness"]["self_s"] < 0.01


def test_corrupted_block_fails_the_run():
    proc = bench("--workload", "bytes_small", "--quick", "--corrupt", check=False)
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_unresolvable_boundary_does_not_fail_the_traced_run():
    ghost = json.dumps({"group": "ghost", "target": "repro.fusion.framework.ECFusion.renamed_away"})
    proc = bench("--workload", "bytes_small", "--quick", "--trace", "1", "--extra-boundary", ghost)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["metrics"]["bench.unresolved_boundaries"]["value"] == 1
    assert set(last["metrics"]) == set(spec.PER_LAYER)


def test_missing_program_is_an_error(tmp_path):
    """In a directory with only BENCHMARK.json and bench/ nothing can run."""
    import shutil

    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bytes_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
