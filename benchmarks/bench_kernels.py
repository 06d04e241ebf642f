"""GF kernel microbenchmarks — the committed perf baseline.

Times the fused hot-path kernels against the naive executable
specifications they replaced:

* MSR single-node repair: the precompiled fused ``(l × n·l)`` plan
  (:meth:`MSRCode.repair`) vs the plane-looped reference kernel
  (``_repair_coupled_naive``), swept across per-node block sizes — the
  speedup is strongly size-dependent (the fused plan amortises best when
  per-coefficient work is tiny), so every row discloses its block size.
* RS parity encode: :class:`CodingPlan` vs ``apply_to_blocks_naive`` on
  the same generator rows, up through MB-scale blocks where the wide
  backends (``pair``/``native``) take over from ``translate``.
* The plan's execution paths (single-gather vs per-coefficient-group
  translate) on either side of the dispatch threshold.

Each sized entry also discloses which kernel backend the plan's
crossover heuristic selected at that block size (``backend`` key), so
baseline drift can be attributed to a selection change vs a kernel
regression.

Every timed pair is also checked byte-identical before it is reported.

The structured results land in ``benchmarks/results/kernels*.json`` (via
the ``save_result`` fixture).  Their *speedup ratios* are machine-speed
independent, unlike raw throughput; wall-clock regressions are gated by
``bench/run.py``, not by this file.
"""

from __future__ import annotations

import time

import numpy as np

from repro.codes import MSRCode, ReedSolomonCode
from repro.experiments import format_table
from repro.gf import CodingPlan, apply_to_blocks_naive

#: (label, per-node block bytes) — must be multiples of l = r² = 16
REPAIR_BLOCK_SIZES = [
    ("256B", 256),
    ("1KB", 1024),
    ("4KB", 4096),
    ("64KB", 65536),
    ("1MB", 1 << 20),
    ("4MB", 1 << 22),
]


def _best_of(fn, repeats: int = 5, min_time: float = 0.02) -> float:
    """Seconds per call, best of ``repeats`` (robust to scheduler noise)."""
    # calibrate an iteration count so one sample spans >= min_time
    iters = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        span = time.perf_counter() - t0
        if span >= min_time:
            break
        iters = max(iters * 2, int(iters * min_time / max(span, 1e-9)))
    best = span / iters
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def _naive_repair(code: MSRCode, failed: int, shards: dict) -> np.ndarray:
    """The pre-vectorization repair path: plane-looped reference kernel."""
    l = code.subpacketization
    L = next(iter(shards.values())).shape[0]
    view = {i: s.reshape(l, L // l) for i, s in shards.items() if i != failed}
    return code._repair_coupled_naive(failed, view).reshape(L)


def test_msr_repair_fused_vs_naive(save_result):
    code = MSRCode(8, 4, verify="off")  # r=4 -> l=16, the paper's wide stripe
    l = code.subpacketization
    rng = np.random.default_rng(1)
    failed = 0
    rows, entries = [], []
    for label, block in REPAIR_BLOCK_SIZES:
        data = rng.integers(0, 256, (code.k, block), dtype=np.uint8)
        shards = {i: s for i, s in enumerate(code.encode(data)) if i != failed}
        expect = _naive_repair(code, failed, shards)
        got = code.repair(failed, shards).block
        assert np.array_equal(got, expect), f"fused repair diverged at {label}"

        t_naive = _best_of(lambda: _naive_repair(code, failed, shards))
        t_fused = _best_of(lambda: code.repair(failed, shards))
        speedup = t_naive / t_fused
        mbps = block / t_fused / 1e6
        backend = code._repair_fused[failed].backend_for(block // l)
        rows.append([label, backend, t_naive * 1e6, t_fused * 1e6, speedup, mbps])
        entries.append(
            {
                "name": f"msr_repair.{label}",
                "block_bytes": block,
                "backend": backend,
                "naive_us": t_naive * 1e6,
                "fused_us": t_fused * 1e6,
                "speedup": speedup,
                "throughput_mb_s": mbps,
                # ratios survive machine-speed swings; absolutes do not
                "compare": {"speedup": speedup},
            }
        )
    text = format_table(
        ["block", "backend", "naive us", "fused us", "speedup", "fused MB/s"],
        rows,
        title="MSR(8,4) single-node repair — fused plan vs plane-looped reference",
    )
    save_result("kernels_msr_repair", text, data={"entries": entries})
    by_label = {e["name"]: e["speedup"] for e in entries}
    assert by_label["msr_repair.256B"] > 5.0 or by_label["msr_repair.1KB"] > 5.0, (
        f"small-block fused repair under 5x: {by_label}"
    )
    assert all(e["speedup"] > 1.5 for e in entries), by_label


def test_rs_encode_plan_vs_naive(save_result):
    rs = ReedSolomonCode(8, 3)
    gen = rs.parity_matrix  # the parity rows encode() applies
    rng = np.random.default_rng(2)
    rows, entries = [], []
    sizes = [
        ("1KB", 1024),
        ("64KB", 65536),
        ("1MB", 1 << 20),
        ("4MB", 1 << 22),
    ]
    for label, block in sizes:
        data = rng.integers(0, 256, (rs.k, block), dtype=np.uint8)
        plan = CodingPlan(gen)
        assert np.array_equal(plan.apply(data), apply_to_blocks_naive(gen, data))
        t_naive = _best_of(lambda: apply_to_blocks_naive(gen, data))
        t_plan = _best_of(lambda: plan.apply(data))
        speedup = t_naive / t_plan
        mbps = data.nbytes / t_plan / 1e6
        backend = plan.backend_for(block)
        rows.append([label, backend, t_naive * 1e6, t_plan * 1e6, speedup, mbps])
        entries.append(
            {
                "name": f"rs_encode.{label}",
                "block_bytes": block,
                "backend": backend,
                "naive_us": t_naive * 1e6,
                "plan_us": t_plan * 1e6,
                "speedup": speedup,
                "throughput_mb_s": mbps,
                "compare": {"speedup": speedup},
            }
        )
    text = format_table(
        ["block", "backend", "naive us", "plan us", "speedup", "plan MB/s"],
        rows,
        title="RS(8,3) parity encode — CodingPlan vs naive triple loop",
    )
    save_result("kernels_rs_encode", text, data={"entries": entries})
    assert all(e["speedup"] > 1.0 for e in entries)


def test_plan_dispatch_paths(save_result):
    """Time the plan's two execution paths at their home block sizes."""
    rs = ReedSolomonCode(8, 3)
    gen = rs.parity_matrix
    rng = np.random.default_rng(3)
    plan = CodingPlan(gen)
    rows, entries = [], []
    for label, block in [("small-gather", 64), ("large-group", 65536)]:
        data = rng.integers(0, 256, (rs.k, block), dtype=np.uint8)
        assert np.array_equal(plan.apply(data), apply_to_blocks_naive(gen, data))
        t = _best_of(lambda: plan.apply(data))
        rows.append([label, block, t * 1e6, data.nbytes / t / 1e6])
        entries.append(
            {
                "name": f"plan_path.{label}",
                "block_bytes": block,
                "plan_us": t * 1e6,
                "throughput_mb_s": data.nbytes / t / 1e6,
                "compare": {},
            }
        )
    text = format_table(
        ["path", "block bytes", "plan us", "MB/s"],
        rows,
        title="CodingPlan dispatch — gathered (small) vs grouped-translate (large)",
    )
    save_result("kernels", text, data={"entries": entries})
