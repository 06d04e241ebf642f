"""One rep of one workload, in a process of its own.

``run.py`` starts this module as a subprocess per rep so that every rep
pays its own imports, native-kernel load and first-touch page faults, and
so that ``ru_maxrss`` is the workload's alone.  The last line of standard
output is the rep's result as one JSON object.

A rep runs in one of three modes (``cfg["mode"]``):

``plain``  nothing wrapped, telemetry off — the only source of end-to-end
           numbers;
``setup``  set-up only (imports, input generation, warm-up), then exit: a
           cheap extra sample of ``setup_s``;
``spans``  ``boundaries.Tracer`` wraps the public entry points; telemetry
           stays off, so the program behaves exactly as in a plain rep;
``meter``  ``repro.telemetry`` is switched on to read the program's own
           counters (the simulator leaves its uncontended fast path when
           metrics are enabled, which can reorder ties — hence a rep apart).

All times are ``time.perf_counter`` wall seconds of this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time

_T0 = time.perf_counter()


def _span_metrics(tracer, summary, completed, traced_s) -> dict:
    """The ``spec.PER_LAYER`` metrics that come from boundary spans."""
    out = {}

    def group(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0, "count": 0})

    gf = group("gf.apply")
    out.update({
        "gf.apply.calls": gf["calls"], "gf.apply.self_s": gf["self_s"],
        "gf.apply.bytes": gf["count"], "gf.apply.share": gf["self_s"] / traced_s,
        "gf.apply.MBps": gf["count"] / 1e6 / gf["self_s"] if gf["self_s"] else 0.0,
    })
    for backend in ("native", "pair", "gather", "translate"):
        out[f"gf.backend.{backend}.calls"] = tracer.tags.get(f"gf.apply:{backend}", 0)
    for name in ("codes.rs.encode", "codes.rs.repair", "codes.msr.encode", "codes.msr.repair",
                 "fusion.transform.rs_to_msr", "fusion.transform.msr_to_rs"):
        g = group(name)
        out.update({f"{name}.calls": g["calls"], f"{name}.self_s": g["self_s"], f"{name}.bytes": g["count"]})
    sel = group("fusion.selector")
    plan = group("hybrid.plan")
    sim = group("cluster.sim.run")
    out.update({
        "fusion.selector.calls": sel["calls"], "fusion.selector.self_s": sel["self_s"],
        "fusion.selector.conversions": sel["count"],
        "fusion.store.self_s": group("fusion.store")["self_s"],
        "hybrid.plan.calls": plan["calls"], "hybrid.plan.self_s": plan["self_s"],
        "hybrid.plan.share": plan["self_s"] / traced_s,
        "cluster.sim.run_self_s": sim["self_s"], "cluster.sim.share": sim["self_s"] / traced_s,
        "cluster.sim.requests_per_host_s": completed / sim["self_s"] if sim["self_s"] else 0.0,
        "cluster.client.submits": tracer.generator_calls.get("cluster.client.submits", 0),
        "server.arrivals_gen_s": group("server.arrivals_gen")["self_s"],
        "server.preload_s": group("server.preload")["self_s"],
        "experiments.cell_s.sum": group("experiments.cell")["total_s"],
        "experiments.cell_s.max": group("experiments.cell")["max_s"],
        "workloads.tracegen_s": group("workloads.tracegen")["self_s"],
        "bench.unresolved_boundaries": len(tracer.unresolved),
        "bench.span_count": len(tracer.spans),
    })
    return out


def _telemetry_metrics(telemetry) -> dict:
    """The ``spec.PER_LAYER`` metrics read from the program's own registry."""
    m = telemetry.METRICS

    def counter(name):
        metric = m.get(name)
        return metric.value if metric is not None else 0.0

    def total(name):
        hist = m.get(name)
        return hist.total if hist is not None else 0.0

    return {
        "cluster.net.bytes": sum(m.get(n).value for n in m.names() if n.startswith("cluster.net.bytes.")),
        "cluster.disk.bytes_read": counter("cluster.disk.bytes_read"),
        "cluster.disk.bytes_written": counter("cluster.disk.bytes_written"),
        "cluster.recovery.jobs": counter("cluster.recovery.jobs"),
        "cluster.recovery.bytes_read": counter("cluster.recovery.bytes_read"),
        "cluster.recovery.retries": counter("chaos.repair.retries"),
        "cluster.recovery.queue_wait_sim_s": total("cluster.scheduler.queue_wait"),
        "cluster.pipeline.chunks": total("cluster.pipeline.chunks"),
        "cluster.degraded_reads": counter("cluster.degraded_reads") + counter("server.degraded_reads"),
        # ServingResult does not expose conversions without chaos; the
        # workload's own count wins where it has one
        "fusion.transform.committed": counter("server.conversions") + counter("cluster.conversions"),
    }


def main(cfg: dict) -> dict:
    import numpy as np  # noqa: F401 - the import is part of set-up

    import spec
    from workloads import CLASSES

    mode = cfg["mode"]
    workload = CLASSES[cfg["workload"]](
        cfg["workload"], cfg["params"], cfg["seed"], cfg["chaos_seed"], cfg.get("corrupt", False)
    )
    marks = [_T0]
    for step in (None, workload.prepare, workload.warm):
        if step is not None:
            step()
        marks.append(time.perf_counter())
    phases = dict(zip(("import_s", "inputs_s", "warm_s"), np.diff(marks).tolist()))
    if mode == "setup":
        return {"setup_s": phases["import_s"] + phases["warm_s"], "phases": phases}

    tracer = telemetry = None
    if mode == "spans":
        from boundaries import Tracer

        tracer = Tracer()
        tracer.install(spec.BOUNDARIES + cfg.get("extra_boundaries", []))
    elif mode == "meter":
        from repro import telemetry

        telemetry.reset()
        telemetry.enable()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if tracer is not None:
        with tracer:
            outcome = workload.run()
        tracer.uninstall()
    else:
        outcome = workload.run()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if telemetry is not None:
        telemetry.disable()

    report = workload.report(outcome)
    result = {
        "setup_s": phases["import_s"] + phases["warm_s"],
        "phases": phases,
        "timed_s": report["timed_s"],
        "wall_s": report["last"] - report["first"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt - faults0,
        "attempted": report["attempted"],
        "completed": report["completed"],
        "failed": report["failed"],
        "refused": report["refused"],
        "checks": report["checks"],
        "digest": report["digest"],
        "counts": {k: v for k, v in report["layer"].items() if v is not None},
        "metrics": {k: v for k, v in report["metrics"].items() if v is not None},
    }
    if telemetry is not None:
        result["layer"] = _telemetry_metrics(telemetry)
    if tracer is not None:
        # the root span (whole timed region, harness work included) is the
        # wall every share is taken of
        traced_s = tracer.spans[0][4] - tracer.spans[0][3]
        summary = tracer.summary()
        result["layer"] = _span_metrics(tracer, summary, report["completed"], traced_s)
        result["unresolved"] = tracer.unresolved
        result["shares"] = {
            g: {"self_s": s["self_s"], "share": s["self_s"] / traced_s, "calls": s["calls"]}
            for g, s in summary.items()
        }
        result["generator_calls"] = tracer.generator_calls
        if cfg.get("spans_path"):
            tracer.dump(cfg["spans_path"])
        if cfg["workload"] == "campaign_fig17":
            spans2 = workload.run(jobs=2)["spans"]
            result["jobs2_s"] = float(spans2[0, 1] - spans2[0, 0])
        import probes

        values, unavailable = probes.run_all()
        result["layer"].update(values)
        result["probes_unavailable"] = unavailable
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
