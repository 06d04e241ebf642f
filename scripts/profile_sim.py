#!/usr/bin/env python3
"""Where one simulated rep spends its events and its host time.

    PYTHONPATH=src python scripts/profile_sim.py SHAPE [--seed N] [--top 25] [--check]

``SHAPE`` is one of ``steady | degraded | storm | fig17`` — the four
non-bytes ``bench/`` workloads at full length (parameters read from
``bench/spec.py``), entered through ``run_serving`` / ``run_campaign``
only.  Two passes over the same seed:

1. a plain ``cProfile`` pass, printed as the per-function table
   (``--top`` rows by self time);
2. a counting pass that tallies what the DES kernel was asked to do:
   heap entries pushed, peak heap depth, ``Event`` / ``Process`` objects
   allocated, generator resumes and ``OpPlan`` objects built, each per
   request, and how many requests were priced in a quiet window (the
   windows opened, less the ones an intruder closed) instead of replayed
   hop by hop.

The counts of pass 2 are a pure function of the seed — no wall clock in
them — so ``--check`` (pass 2 only) compares them with the ceilings
below and exits 1 above any of them: CI's ``bench-smoke`` job runs
``--check`` on all four shapes as a noise-free gate on the kernel's
event economy.
Point ``PYTHONPATH`` at another checkout's ``src/`` to count that tree
with the same instrument.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import Counter
from pathlib import Path

from repro.chaos import ChaosConfig
from repro.cluster import events
from repro.experiments import ExperimentConfig, run_campaign
from repro.hybrid import plans
from repro.server import ServerConfig, WorkloadSpec, run_serving
from repro.telemetry import METRICS

# the shapes are bench/'s, read from its declarative table (nothing of the
# harness is imported or run)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spec  # noqa: E402

SHAPES = {
    "steady": "serve_steady",
    "degraded": "serve_degraded",
    "storm": "serve_storm",
    "fig17": "campaign_fig17",
}

#: ceilings a few percent above what the callback-scheduled kernel reaches
#: at seeds 5 and 21.  The generator kernel it replaced read, on the same
#: four shapes at seed 21: 16.81 / 34.94 / 23.06 / 19.02 entries and
#: 21.39 / 45.54 / 26.47 / 20.66 events per request, and peak depths of
#: 9,575 / 17,867 / 35,803 / 361 (open-loop serving pre-booked one entry
#: per offered request; the closed-loop campaign never did).
#: ``fig17`` is the closed-loop shape: since the quiet-window fast-forward
#: 73 % of its requests are one entry each (19.02 → 6.73 / 6.74 entries per
#: request at seeds 21 / 5); open-loop serving opens no window, so the
#: other three entry ceilings — and counts — are the kernel's own.
#: Since requests run as callback chains (``ObjectStore.get_cb`` …,
#: ``PlanExecutor.run_cb``) a healthy serving request allocates no
#: ``Event`` or ``Process`` and resumes no generator (``steady``: 3.05 /
#: 2.00 / 6.05 before).  Since the chaos fan-out, the scrubber and repair
#: supervision are chains too, neither do degraded or storm requests
#: (before: 2.23 / 1.42 / 3.65 and 12.14 / 4.41 / 15.42 at seed 21; storm
#: keeps ~0.001 ``Event``s, its fault timers).  Since ``run_workload``'s
#: requests and repairs are chains too, neither does the campaign (before:
#: 0.52 / 0.79 / 1.72 at seed 21).  What is left is the pipelined repair
#: path's chunk flows, which no shape here runs.
#: Planners hand out one shared ``OpPlan`` per shape, and the store one
#: fan-out plan per lost-slot pattern, so plans are built at warm-up only
#: (before: 1.00 / 2.07 / 1.40 / 1.22 per request at seed 21).
CEILINGS = {
    "steady": dict(
        entries=16.0, events=0.05, processes=0.05, resumes=0.05, plans=0.01, peak_depth=200
    ),
    "degraded": dict(
        entries=34.5, events=0.05, processes=0.05, resumes=0.05, plans=0.01, peak_depth=200
    ),
    "storm": dict(
        entries=22.5, events=0.05, processes=0.05, resumes=0.05, plans=0.01, peak_depth=1000
    ),
    "fig17": dict(
        entries=7.0, events=0.05, processes=0.05, resumes=0.05, plans=0.01, peak_depth=400
    ),
}


def run_shape(shape: str, seed: int) -> int:
    """One rep of ``shape``; returns the number of requests it offered."""
    p = spec.params_for(SHAPES[shape], quick=False)
    if shape == "fig17":
        config = ExperimentConfig(num_requests=p["num_requests"], seed=seed)
        campaign = run_campaign(config, use_cache=False, jobs=1)
        return p["num_requests"] * len(campaign.results)
    chaos = None
    if p.get("chaos_profile"):
        chaos = ChaosConfig(p["chaos_profile"], seed=seed + 1)
    offered = 0
    for rate in p.get("rates") or [p["rate"]]:
        workload = WorkloadSpec(
            target_ops=rate, duration=p["duration"], read_fraction=p["read_fraction"],
            distribution=p["distribution"], zipf_theta=0.99,
            num_objects=p["num_objects"], seed=seed,
        )
        config = ServerConfig(failure_rate=p.get("failure_rate", 0.0))
        offered += run_serving(workload, config, chaos).offered
    return offered


def count_pass(shape: str, seed: int) -> dict:
    """Run ``shape`` with allocation/resume/push counters patched in."""
    made: Counter = Counter()
    plans_made = [0]
    sims: list = []
    resumes = [0]
    priced = [0]

    def counting_new(cls, *_args, **_kwargs):
        made[cls] += 1
        obj = object.__new__(cls)
        if cls is events.Simulator:
            sims.append(obj)
        return obj

    def counting_plan(cls, *_args, **_kwargs):
        plans_made[0] += 1
        return object.__new__(cls)

    step = events.Process._step

    def counting_step(self, fired):
        resumes[0] += 1
        return step(self, fired)

    # a quiet window is what ``sim._window`` is set to when the closed loop
    # opens one; ``_intrude`` closes it early (``call_at`` alone is no
    # witness: open-loop arrivals are ``call_at`` entries too).  Kernels
    # before the fast-forward have no window: nothing is priced.
    window = events.Simulator.__dict__.get("_window")  # the slot descriptor

    class CountingWindow:
        def __get__(self, sim, owner=None):
            return window.__get__(sim, owner)

        def __set__(self, sim, value):
            if value is not None:
                priced[0] += 1
            window.__set__(sim, value)

    intrude = getattr(events.Simulator, "_intrude", None)

    def counting_intrude(self):
        priced[0] -= 1
        return intrude(self)

    events.Event.__new__ = events.Simulator.__new__ = staticmethod(counting_new)
    plans.OpPlan.__new__ = staticmethod(counting_plan)
    events.Process._step = counting_step
    if window is not None:
        events.Simulator._window = CountingWindow()
        events.Simulator._intrude = counting_intrude
    METRICS.reset()
    METRICS.enable()  # only for the heap-depth gauge's high-water mark
    try:
        requests = run_shape(shape, seed)
        peak = METRICS.gauge("sim.heap_depth", unit="events").high_water
    finally:
        METRICS.disable()
        METRICS.reset()
    del made[events.Simulator]
    processes = sum(n for cls, n in made.items() if issubclass(cls, events.Process))
    # ``events_scheduled`` is the public push count; older kernels only
    # have the private sequence number it exposes
    pushes = sum(getattr(s, "events_scheduled", s._seq) for s in sims)
    return {
        "requests": requests,
        "priced": priced[0],
        "entries": pushes / requests,
        "peak_depth": int(peak),
        "events": (sum(made.values()) - processes) / requests,
        "processes": processes / requests,
        "resumes": resumes[0] / requests,
        "plans": plans_made[0] / requests,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("shape", choices=list(SHAPES))
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--top", type=int, default=25, help="rows of the cProfile table")
    ap.add_argument(
        "--check", action="store_true",
        help="counting pass only; exit 1 when a count exceeds its ceiling",
    )
    args = ap.parse_args(argv)

    if not args.check:
        profile = cProfile.Profile()
        profile.enable()
        run_shape(args.shape, args.seed)
        profile.disable()
        stats = pstats.Stats(profile, stream=sys.stdout)
        print(f"cProfile, {args.shape} seed {args.seed}: {stats.total_calls:,} calls")
        stats.sort_stats("tottime").print_stats(args.top)

    c = count_pass(args.shape, args.seed)
    print(f"{args.shape} seed {args.seed}: {c['requests']:,} requests")
    print(f"  requests priced / requests   {c['priced']:,} / {c['requests']:,}")
    print(f"  heap entries / request       {c['entries']:8.2f}")
    print(f"  peak heap depth              {c['peak_depth']:8d}")
    print(f"  Event allocations / request  {c['events']:8.2f}")
    print(f"  Process allocations / request{c['processes']:8.2f}")
    print(f"  generator resumes / request  {c['resumes']:8.2f}")
    print(f"  OpPlan allocations / request {c['plans']:8.3f}")
    if not args.check:
        return 0
    over = [
        f"{name} {c[name]:.2f} > {limit}"
        for name, limit in CEILINGS[args.shape].items()
        if c[name] > limit
    ]
    for line in over:
        print(f"ABOVE CEILING: {line}", file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
