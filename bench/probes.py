"""Layer probes: direct, fixed-input calls into single layers.

The six workloads exercise the layers in the mix real use produces; the
probes pin each layer alone at two block sizes, so the cost model's
constants (α, λ, φ) can later be derived from them.  Every probe checks
its output byte for byte against the decode/naive path first; one whose
import or check fails is reported as unavailable, never as an error.

Timing is the best of three batches of wall time — informative numbers
without a bound, run once in the traced pass.
"""

from __future__ import annotations

import os
import time

import numpy as np

import spec

#: wall seconds one batch of a probe should take
_BATCH_S = 0.02
_SEED = 20200518


def _best_rate(fn, work_per_call: float) -> float:
    """``work_per_call`` units per second, best of three batches."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-6)
    calls = max(1, int(_BATCH_S / once))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return work_per_call / best


def _blocks(rows: int, size: int, multiple: int = 1) -> np.ndarray:
    length = size - size % multiple
    return np.random.default_rng(_SEED).integers(0, 256, (rows, length), dtype=np.uint8)


def _gf_probes(out):
    from repro.gf import CodingPlan, apply_to_blocks_naive, available_backends, systematic_rs_parity

    m = systematic_rs_parity(6, 3)
    available = available_backends()
    for name in spec.PROBES:
        if not name.startswith("probe.gf."):
            continue
        backend, label = name.split(".")[-2:]
        blocks = _blocks(6, spec.PROBE_SIZES[label])
        if backend not in available:
            continue
        previous = os.environ.get("REPRO_GF_BACKEND")
        os.environ["REPRO_GF_BACKEND"] = backend
        try:
            plan = CodingPlan(m)
            if plan.backend_for(blocks.shape[1]) != backend:
                continue  # the backend declines this shape
            if not np.array_equal(plan.apply(blocks), apply_to_blocks_naive(m, blocks)):
                continue
            out[name] = _best_rate(lambda: plan.apply(blocks), blocks.nbytes / 1e6)
        finally:
            if previous is None:
                del os.environ["REPRO_GF_BACKEND"]
            else:
                os.environ["REPRO_GF_BACKEND"] = previous


def _codes_probes(out):
    from repro.codes import (
        FractionalRepetitionCode,
        LocalReconstructionCode,
        MSRCode,
        ReedSolomonCode,
    )

    codes = {
        "rs": ReedSolomonCode(6, 3),
        "msr": MSRCode(6, 3),
        "lrc": LocalReconstructionCode(6, 2, 2),
        "fr": FractionalRepetitionCode(3, 3, 2),
    }
    for key, code in codes.items():
        for label, size in spec.PROBE_SIZES.items():
            if f"probe.codes.{key}.encode_MBps.{label}" not in spec.PER_LAYER:
                continue
            data = _blocks(code.k, size, getattr(code, "subpacketization", 1))
            coded = code.encode(data)
            shards = {i: coded[i] for i in range(code.n) if i != 0}
            if not np.array_equal(code.decode(shards), coded):
                continue
            if not np.array_equal(code.repair(0, shards).block, coded[0]):
                continue
            mb = data.nbytes / 1e6
            out[f"probe.codes.{key}.encode_MBps.{label}"] = _best_rate(lambda: code.encode(data), mb)
            out[f"probe.codes.{key}.decode_MBps.{label}"] = _best_rate(lambda: code.decode(shards), mb)
            out[f"probe.codes.{key}.repair_MBps.{label}"] = _best_rate(
                lambda: code.repair(0, shards), coded[0].nbytes / 1e6
            )


def _transform_probes(out):
    from repro.fusion.transform import FusionTransformer

    tr = FusionTransformer(6, 3)
    for label, size in spec.PROBE_SIZES.items():
        data = _blocks(6, size, tr.subpacketization)
        parity = tr.rs.encode(data)[6:]
        groups = tr.rs_to_msr(data, parity).groups
        msr_parities = [g[3:] for g in groups]
        if not np.array_equal(tr.msr_to_rs(msr_parities).parity, parity):
            continue
        mb = data.nbytes / 1e6
        out[f"probe.fusion.transform.rs_to_msr_MBps.{label}"] = _best_rate(
            lambda: tr.rs_to_msr(data, parity), mb
        )
        out[f"probe.fusion.transform.msr_to_rs_MBps.{label}"] = _best_rate(
            lambda: tr.msr_to_rs(msr_parities), mb
        )


def _sim_probe(out):
    from repro.cluster.events import FIFOResource, Simulator

    procs, steps = 50, 40

    def run():
        sim = Simulator()
        disk = FIFOResource(sim, name="probe-disk")

        def proc(i):
            for _ in range(steps):
                yield sim.timeout(0.001 * (i + 1))
                yield from disk.use(0.0005)

        for i in range(procs):
            sim.process(proc(i))
        sim.run()
        if disk.served != procs * steps:
            raise RuntimeError("simulator probe lost events")

    run()
    out["probe.cluster.sim.events_per_s"] = _best_rate(run, 2 * procs * steps)


def _plan_probe(out):
    from repro.hybrid import ECFusionPlanner, HACFSPlanner, LRCPlanner, MSRPlanner, RSPlanner

    gamma = 27 * 1024 * 1024
    planners = [
        RSPlanner(8, 3, gamma), MSRPlanner(8, 3, gamma), LRCPlanner(8, 2, 2, gamma),
        HACFSPlanner(8, gamma), ECFusionPlanner(8, 3, gamma),
    ]

    def run():
        for p in planners:
            for stripe in range(16):
                p.plan_write(stripe)
                p.plan_read(stripe, 1)
                p.plan_recovery(stripe, 2)
                p.plan_degraded_read(stripe, 3)

    out["probe.hybrid.plans_per_s"] = _best_rate(run, len(planners) * 16 * 4)


def _selector_probe(out):
    from repro.fusion.adaptation import AdaptiveSelector
    from repro.fusion.costmodel import CostModel, SystemProfile

    def run():
        selector = AdaptiveSelector(CostModel(6, 3, SystemProfile()), queue_capacity=64)
        for stripe in range(256):
            selector.on_write(stripe)
            selector.on_recovery(stripe)
            selector.on_read(stripe)

    out["probe.fusion.selector_ops_per_s"] = _best_rate(run, 3 * 256)


def run_all() -> tuple[dict[str, float], list[str]]:
    """``(values, unavailable)`` for every ``probe.*`` metric of the spec."""
    out: dict[str, float] = {}
    for probe in (_gf_probes, _codes_probes, _transform_probes, _sim_probe, _plan_probe, _selector_probe):
        try:
            probe(out)
        except Exception as exc:  # a probe must never fail the run
            print(f"probe {probe.__name__} unavailable: {exc!r}")
    wanted = [n for n in spec.PER_LAYER if n.startswith("probe.")]
    return out, [n for n in wanted if n not in out]
