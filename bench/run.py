#!/usr/bin/env python3
"""The repository's one performance benchmark.

    python bench/run.py [--seed 21] [--chaos-seed 3] [--reps 5] [--trace] [--quick]
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python bench/run.py --compare A.json B.json

Without ``--workload`` all six workloads run and the results land in
``bench/out/latest.json`` (``--out`` to choose).  With ``--workload`` one
workload runs and the last line printed is the result object the
benchmark contract asks for.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import spec  # noqa: E402

def worker_env() -> dict:
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        # repro.gf.native caches its compiled kernel under the temp dir;
        # keep that inside the checkout
        "TMPDIR": str(build / "tmp"),
    })
    return env


def host_info() -> dict:
    """Who measured: enough to refuse comparing unlike hosts silently."""
    probe = (
        "import json, numpy, repro.gf as g;"
        "print(json.dumps({'numpy': numpy.__version__, 'backends': list(g.available_backends())}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=worker_env(), capture_output=True, text=True, timeout=170
    )
    seen = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else {}
    forced = {k: os.environ[k] for k in ("REPRO_GF_BACKEND", "REPRO_GF_NATIVE") if k in os.environ}
    info = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": seen.get("numpy"),
        "machine": platform.machine(),
        "compiler": next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None),
        "gf_backends": seen.get("backends", []),
        "gf_env": forced,
        "loadavg_at_start": list(os.getloadavg()),
    }
    info["degraded"] = "native" not in info["gf_backends"] or bool(forced)
    if info["degraded"]:
        print(
            "!" * 72 + "\n!! DEGRADED HOST: native GF kernel missing or a backend is forced "
            f"({info['gf_backends']}, {forced});\n!! these numbers must not be compared with a "
            "full host's.\n" + "!" * 72,
            file=sys.stderr,
        )
    return info


def run_rep(workload: str, cfg: dict, mode: str = "plain", **extra) -> dict:
    cfg = dict(cfg, workload=workload, mode=mode, **extra)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        env=worker_env(), capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker failed\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values), "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def run_workload(name: str, args) -> dict:
    """All reps of one workload, aggregated into one result record."""
    params = spec.params_for(name, args.quick)
    cfg = {"params": params, "seed": args.seed, "chaos_seed": args.chaos_seed, "corrupt": args.corrupt}
    # whole reps until their timed regions fill --seconds (never fewer than
    # MIN_REPS), or exactly --reps; the contract's traced run needs one
    # plain rep only, as the base line
    fixed = args.reps or (1 if args.trace and args.workload else 0)
    reps = [run_rep(name, cfg)]
    while len(reps) < (fixed or spec.MIN_REPS) or (
        not fixed and sum(r["wall_s"] for r in reps) < args.seconds
    ):
        reps.append(run_rep(name, cfg))

    first = reps[0]
    problems = list(first["checks"])
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"reps disagree on simulated/counted outputs: {sorted(digests)}")
    if name != "serve_storm" and first["refused"]:
        problems.append(f"{first['refused']} requests refused outside serve_storm")
    if name != "serve_storm" and first["counts"].get("chaos.faults_applied"):
        problems.append("chaos faults applied outside serve_storm")

    # set-up is a fraction of a second, so it gets samples of its own:
    # set-up-only processes on top of the reps' own
    setups = reps + [run_rep(name, cfg, "setup") for _ in range(spec.SETUP_SAMPLES - len(reps))]
    host = {
        "setup_s": [r["setup_s"] for r in setups],
        "host_ops_per_s": [r["completed"] / r["timed_s"] for r in reps],
        "host_peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    for key in ("host_write_MBps", "host_repair_MBps"):
        if key in first["metrics"]:
            host[key] = [r["metrics"][key] for r in reps]
    end_to_end = {k: dict(_spread(v), unit=spec.END_TO_END[k]["unit"]) for k, v in host.items()}
    bad = first["failed"] + first["refused"]
    fixed = dict(first["metrics"], failed_share=bad / first["attempted"])
    for key, value in fixed.items():
        if key not in end_to_end and name in spec.END_TO_END[key]["on"]:
            end_to_end[key] = {"value": value, "unit": spec.END_TO_END[key]["unit"]}
    for key, label in (("sim_get_p99_ms", "sim_get_samples"), ("sim_degraded_p99_ms", "sim_degraded_samples")):
        if key in end_to_end:
            end_to_end[key]["n"] = first["counts"].get(label)

    record = {
        "workload": name, "params": params, "seed": args.seed, "chaos_seed": args.chaos_seed,
        "why": spec.WORKLOADS[name]["why"], "loop": spec.WORKLOADS[name]["loop"],
        "reps": len(reps), "digest": first["digest"],
        "attempted": first["attempted"], "completed": first["completed"],
        "failed": first["failed"], "refused": first["refused"],
        "end_to_end": end_to_end,
        "phases": {k: statistics.median(r["phases"][k] for r in setups) for k in first["phases"]},
        "host_wall_s": statistics.median(r["wall_s"] for r in reps),
    }

    if args.trace:
        traced = run_rep(
            name, cfg, "spans", spans_path=str(out_dir() / f"spans-{name}.npz"),
            extra_boundaries=args.extra_boundary,
        )
        metered = run_rep(name, cfg, "meter")
        if traced["digest"] != first["digest"]:
            problems.append("the traced rep's outputs differ from the untraced reps'")
        base = statistics.median(r["timed_s"] for r in reps)
        # outcome counts of layers this workload never enters are true zeros
        layer = {
            n: 0 for n, m in spec.PER_LAYER.items()
            if m["unit"] == "count" and m["layer"] in ("chaos", "server", "cluster", "bench")
        }
        layer.update(metered["layer"])
        layer.update(traced["layer"])
        layer.update(first["counts"])  # outcome counts come from an untraced rep
        done = layer["fusion.transform.committed"] + layer.setdefault("fusion.transform.aborted", 0)
        layer.update({
            "fusion.transform.useful_ratio": layer["fusion.transform.committed"] / done if done else 1.0,
            "bench.trace_overhead_ratio": traced["timed_s"] / base,
            "bench.metered_outputs_match": int(metered["digest"] == first["digest"]),
            "bench.host_wall_s": record["host_wall_s"],
            "bench.minor_faults": statistics.median(r["minor_faults"] for r in reps),
        })
        if "jobs2_s" in traced:
            layer["experiments.jobs2_speedup"] = base / traced["jobs2_s"]
        for key, cell in end_to_end.items():
            if key not in spec.GATED:
                layer[key] = cell.get("median", cell.get("value"))
        if name not in spec.BYTES and (layer["gf.apply.calls"] or layer["codes.rs.encode.calls"]):
            problems.append("gf/codes calls on a workload that moves no real bytes")
        record["per_layer"] = layer
        record["traced"] = {
            k: traced[k] for k in ("shares", "unresolved", "generator_calls", "probes_unavailable")
        }

    record["problems"] = problems
    record["correct"] = not problems and first["failed"] == 0
    return record


def out_dir() -> Path:
    path = HERE / "out"
    path.mkdir(exist_ok=True)
    return path


def contract_line(record: dict, traced: bool) -> str:
    """The one JSON object the benchmark contract reads from the last line."""
    if traced:
        metrics = {
            name: {"value": record["per_layer"].get(name, 0), "unit": m["unit"]}
            for name, m in spec.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name]["median"], "unit": spec.END_TO_END[name]["unit"]}
            for name in spec.GATED
        }
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--chaos-seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--reps", type=int, help="fixed number of untraced reps (default: fill --seconds; 5 for the full run)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    ap.add_argument("--quick", action="store_true", help="one rep of 1/10-size workloads")
    ap.add_argument("--out", type=Path, help="where the full run writes its results")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--write-benchmark-json", action="store_true")
    # self-test hooks
    ap.add_argument("--corrupt", action="store_true", help="flip one recovered byte before verifying (self-test)")
    ap.add_argument("--extra-boundary", action="append", default=[], type=json.loads, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        return report.compare(*args.compare)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} not found — nothing to measure", file=sys.stderr)
        return 2
    if args.quick:
        args.reps = 1
    elif args.reps is None and not args.workload:
        args.reps = 5

    started = time.time()
    host = host_info()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    records = []
    for name in names:
        record = run_workload(name, args)
        records.append(record)
        print(report.render(record))
    ok = all(r["correct"] for r in records)
    if args.workload:
        print(contract_line(records[0], bool(args.trace)))
    else:
        out = args.out or out_dir() / "latest.json"
        out.write_text(json.dumps({
            "schema": "bench.results/v1", "command": spec.COMMAND, "host": host,
            "quick": args.quick, "wall_s": time.time() - started,
            "workloads": {r["workload"]: r for r in records},
        }, indent=1) + "\n")
        print(f"results written to {out}  (host degraded: {host['degraded']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
