"""Human-readable output and the two-file compare tool."""

from __future__ import annotations

import json

import spec


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _table(headers, rows) -> str:
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    line = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()  # noqa: E731
    return "\n".join([line(headers), line(["-" * w for w in widths]), *map(line, rows)])


def render(record: dict) -> str:
    """Every metric of one workload by name, with its unit."""
    name = record["workload"]
    head = (
        f"\n== {name}  seed={record['seed']} chaos_seed={record['chaos_seed']} "
        f"reps={record['reps']}  {record['loop']}\n"
        f"   attempted={record['attempted']} completed={record['completed']} "
        f"refused={record['refused']} wrong={record['failed']}  "
        f"correct={record['correct']}  digest={record['digest'][:16]}"
    )
    if name in spec.SERVE:
        head += (
            "\n   open loop: arrivals are simulator timeouts drawn up front and latency "
            "runs from the intended arrival, so generator lateness is 0 s by construction"
        )
    rows = []
    for metric, m in spec.END_TO_END.items():
        cell = record["end_to_end"].get(metric)
        if cell is None:
            continue
        if "median" in cell:
            spread = (cell["q3"] - cell["q1"]) / cell["median"] if cell["median"] else 0.0
            rows.append([metric, cell["median"], m["unit"], f"q1 {_fmt(cell['q1'])} q3 {_fmt(cell['q3'])}",
                         f"n={cell['n']} reps, iqr {100 * spread:.1f} %"])
        else:
            n = f"n={cell['n']} samples" if cell.get("n") else "same in every rep"
            rows.append([metric, cell["value"], m["unit"], "", n])
    text = head + "\n" + _table(["end-to-end metric", "value", "unit", "quartiles", "basis"], rows)
    for problem in record["problems"]:
        text += f"\n   PROBLEM: {problem}"
    if "per_layer" not in record:
        return text

    traced = record["traced"]
    share_rows = sorted(
        ([g, s["self_s"], 100 * s["share"], s["calls"]] for g, s in traced["shares"].items()),
        key=lambda r: -r[1],
    )
    text += (
        f"\n-- traced rep: self time per boundary group (sums to the traced wall; "
        f"cluster.sim.run is the event loop plus the coroutines it resumes)\n"
        + _table(["group", "self_s", "share %", "calls"], share_rows)
    )
    if traced["generator_calls"]:
        text += "\n   generator entry points (counted, not timed): " + ", ".join(
            f"{k}={v}" for k, v in sorted(traced["generator_calls"].items())
        )
    if traced["unresolved"]:
        text += "\n   bench.unresolved_boundaries: " + ", ".join(traced["unresolved"])
    if not record["per_layer"]["bench.metered_outputs_match"]:
        text += (
            "\n   NOTE: with repro.telemetry switched on the simulated outputs differ from the "
            "untraced reps' (the\n   simulator leaves its uncontended fast path); the cluster.* "
            "byte/job/wait counters below, read from\n   that registry, describe the metered run. "
            "Spans and outcome counts come from unmetered reps."
        )
    layer_rows = []
    for metric, m in spec.PER_LAYER.items():
        if metric in traced["probes_unavailable"]:
            layer_rows.append([metric, "unavailable", m["unit"], m["layer"]])
        elif metric in record["per_layer"]:
            layer_rows.append([metric, record["per_layer"][metric], m["unit"], m["layer"]])
    text += "\n-- per-layer metrics\n" + _table(["metric", "value", "unit", "layer"], layer_rows)
    return text


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _worse_by(a: float, b: float, m: dict) -> float:
    """How much worse B is than A, in the unit of the metric's bound."""
    delta = (b - a) if m["better"] == "lower" else (a - b)
    return delta if m.get("absolute") else (delta / abs(a) if a else float(delta != 0))


def _verdict(ca: dict, cb: dict, m: dict) -> str:
    a = ca.get("median", ca.get("value"))
    b = cb.get("median", cb.get("value"))
    worse = _worse_by(a, b, m)
    va, vb = ca.get("values"), cb.get("values")
    if va and vb and len(va) > 1 and len(vb) > 1:
        noisy = max((c["q3"] - c["q1"]) / abs(c["median"]) for c in (ca, cb)) > m["bound"]
        if noisy:
            sign = 1 if m["better"] == "lower" else -1
            if all(sign * y < sign * x for x in va for y in vb) and worse < -m["bound"]:
                return "improved"
            if all(sign * y > sign * x for x in va for y in vb) and worse > m["bound"]:
                return "regressed"
            return "unresolved"
    if worse > m["bound"]:
        return "regressed"
    if worse < -m["bound"] or (m["bound"] == 0 and worse < 0):
        return "improved"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    """Row per (workload, end-to-end metric); exit 1 on any regression."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for side, data in (("A", a), ("B", b)):
        if data["host"]["degraded"]:
            print(f"!! {side} was measured on a degraded host: {data['host']['gf_backends']} {data['host']['gf_env']}")
    same_host = all(a["host"][k] == b["host"][k] for k in ("cores", "python", "numpy", "gf_backends", "gf_env"))
    if not same_host:
        print("!! A and B come from unlike hosts; host_ rows are not comparable")
    rows, bad = [], 0
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb:
            continue
        for metric, m in spec.END_TO_END.items():
            ca, cb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ca is None or cb is None:
                continue
            va, vb = ca.get("median", ca.get("value")), cb.get("median", cb.get("value"))
            verdict = _verdict(ca, cb, m)
            if metric == "failed_share" and vb > va:
                verdict = "regressed"
            bad += verdict == "regressed"
            iqr = lambda c: f"{100 * (c['q3'] - c['q1']) / abs(c['median']):.1f} %" if "q1" in c and c["median"] else "-"  # noqa: E731
            ratio = f"{vb / va:.4f} x A" if va else "-"
            rows.append([name, metric, va, vb, ratio, iqr(ca), iqr(cb), verdict])
        if wa["digest"] != wb["digest"]:
            rows.append([name, "(digest)", wa["digest"][:12], wb["digest"][:12], "-", "-", "-", "behaviour differs"])
    print(_table(["workload", "metric", "A", "B", "B/A", "iqr A", "iqr B", "verdict"], rows))
    print(f"{bad} regressed")
    return 1 if bad else 0
