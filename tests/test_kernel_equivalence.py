"""Fused GF kernels vs their kept naive references.

The hot-path pass replaced three kernels with fused implementations and
deliberately kept each original as an executable specification:

* :func:`repro.gf.apply_to_blocks` / :class:`CodingPlan` vs
  :func:`apply_to_blocks_naive` (the triple loop);
* the plan's two dispatch paths (single-gather for tiny blocks,
  per-coefficient-group translate for large ones) vs each other;
* MSR repair's two rungs, ``_repair_coupled_naive`` (plane-looped
  spec) and ``repair`` (one precompiled fused plan) — they must agree
  bit-for-bit for every single-erasure pattern.

This file is the property net under the perf work: any future "faster"
kernel must keep these green.  Block lengths are chosen odd (and odd
multiples of the subpacketization) so shape edge cases stay covered, and
column counts straddle the gather-dispatch threshold so both plan paths
run.
"""

import threading

import numpy as np
import pytest

from repro.codes import (
    FractionalRepetitionCode,
    HitchhikerCode,
    LocalReconstructionCode,
    MSRCode,
    ReedSolomonCode,
)
from repro.gf import GF, CodingPlan, apply_to_blocks, apply_to_blocks_naive, matmul
from repro.gf.arithmetic import GF as GFClass
from repro.gf.native import STREAM_BYTES
from repro.gf.tables import get_tables


def all_codes():
    return [
        ReedSolomonCode(6, 3),
        ReedSolomonCode(4, 2),
        MSRCode(4, 2, verify="off"),
        MSRCode(6, 3, verify="off"),
        LocalReconstructionCode(6, 2, 2),
        LocalReconstructionCode(8, 2, 2, layout="interleaved"),
        HitchhikerCode(6, 3),
        FractionalRepetitionCode(4, 5),
    ]


CODES = all_codes()
CODE_IDS = [c.name for c in CODES]

#: column counts on both sides of the plan's gather-dispatch threshold
#: (nnz * ncols <= 1 << 13 gathers; larger runs the grouped translate
#: path) — all odd, so no kernel can lean on even/aligned lengths
SMALL_COLS = 7
LARGE_COLS = 4097


@pytest.mark.parametrize("ncols", [1, SMALL_COLS, 257, LARGE_COLS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_matches_naive_on_random_matrices(seed, ncols):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 12, size=2)
    m = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    m[rng.random(m.shape) < 0.3] = 0  # sparse rows exercise group pruning
    blocks = rng.integers(0, 256, (cols, ncols), dtype=np.uint8)
    plan = CodingPlan(m)
    expect = apply_to_blocks_naive(m, blocks)
    assert np.array_equal(plan.apply(blocks), expect)
    assert np.array_equal(apply_to_blocks(m, blocks), expect)


def test_plan_gather_and_group_paths_agree():
    """The same plan must answer identically on both sides of the dispatch."""
    rng = np.random.default_rng(7)
    m = rng.integers(0, 256, (5, 9), dtype=np.uint8)
    plan = CodingPlan(m)
    for ncols in (1, SMALL_COLS, LARGE_COLS):  # gather, gather, grouped
        blocks = rng.integers(0, 256, (9, ncols), dtype=np.uint8)
        assert np.array_equal(plan.apply(blocks), apply_to_blocks_naive(m, blocks))


def test_plan_zero_matrix_and_zero_rows():
    m = np.zeros((4, 6), dtype=np.uint8)
    blocks = np.arange(6 * SMALL_COLS, dtype=np.uint8).reshape(6, SMALL_COLS)
    assert np.array_equal(CodingPlan(m).apply(blocks), np.zeros((4, SMALL_COLS), np.uint8))
    m[1, 3] = 5  # one live row among dead ones: scatter path, not passthrough
    assert np.array_equal(
        CodingPlan(m).apply(blocks), apply_to_blocks_naive(m, blocks)
    )


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_encode_decode_equivalence_odd_lengths(code):
    """Every code round-trips odd block lengths through the fused kernels."""
    rng = np.random.default_rng(11)
    L = code.subpacketization * 3  # odd multiple of l
    data = rng.integers(0, 256, (code.k, L), dtype=np.uint8)
    coded = code.encode(data)
    if hasattr(code, "parity_matrix"):
        assert np.array_equal(
            coded[code.k :], apply_to_blocks_naive(code.parity_matrix, data)
        )
    for lost in range(code.n):  # every single-erasure pattern
        shards = {i: coded[i] for i in range(code.n) if i != lost}
        rebuilt = code.repair(lost, shards).block
        assert np.array_equal(rebuilt, coded[lost]), f"{code.name}: erasure {lost}"


@pytest.mark.parametrize(
    "nr",
    # (n, r, odd per-plane width); the last rebuilds a block of just over
    # STREAM_BYTES, so the fused plan's output rows stream
    [(4, 2, 5), (6, 3, 5), (8, 4, 5), (8, 4, STREAM_BYTES // 16 + 1)],
)
def test_msr_repair_kernel_ladder(nr):
    """spec == fused ``repair()`` for every failed node, odd block length."""
    n, r, sub = nr
    code = MSRCode(n, r, verify="off")
    l = code.subpacketization
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, (code.k, l * sub), dtype=np.uint8)
    coded = code.encode(data)
    for failed in range(code.n):
        view = {
            i: coded[i].reshape(l, sub) for i in range(code.n) if i != failed
        }
        naive = code._repair_coupled_naive(failed, view)
        shards = {i: coded[i] for i in range(code.n) if i != failed}
        fused = code.repair(failed, shards).block.reshape(l, sub)
        assert np.array_equal(naive, fused), f"fused diverged at node {failed}"
        assert np.array_equal(fused.reshape(-1), coded[failed])


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_encode_batch_matches_per_stripe_loop(code):
    """The stripe-batched entry point is byte-identical to the loop."""
    if not hasattr(code, "encode_batch"):
        pytest.skip(f"{code.name} has no batch entry point")
    rng = np.random.default_rng(17)
    L = code.subpacketization * 5  # odd multiple of l
    stacked = rng.integers(0, 256, (4, code.k, L), dtype=np.uint8)
    batched = code.encode_batch(stacked)
    for b in range(4):
        assert np.array_equal(batched[b], code.encode(stacked[b])), (
            f"{code.name}: encode_batch diverged at stripe {b}"
        )


@pytest.mark.parametrize("ncols", [SMALL_COLS, 1025])
def test_plan_apply_batch_vs_apply_loop(ncols):
    """apply_batch against stripe-by-stripe apply."""
    rng = np.random.default_rng(29)
    m = rng.integers(0, 256, (5, 9), dtype=np.uint8)
    m[rng.random(m.shape) < 0.3] = 0
    plan = CodingPlan(m)
    for batch in (0, 1, 2, 6):
        stacked = rng.integers(0, 256, (batch, 9, ncols), dtype=np.uint8)
        got = plan.apply_batch(stacked)
        assert got.shape == (batch, 5, ncols)
        for b in range(batch):
            assert np.array_equal(got[b], plan.apply(stacked[b]))
            assert np.array_equal(got[b], apply_to_blocks_naive(m, stacked[b]))


def test_matmul_rejects_1d_inputs():
    """Regression: 1-D operands used to broadcast into garbage shapes."""
    gf = GF.get()
    a = np.array([1, 2, 3], dtype=np.uint8)
    b = np.eye(3, dtype=np.uint8)
    with pytest.raises(ValueError):
        matmul(a, b)
    with pytest.raises(ValueError):
        matmul(b, a)
    del gf


def test_mul_table_concurrent_first_build():
    """Regression: the lazy mul table races under threads.

    A fresh (non-singleton) field instance starts with no table; many
    threads building it concurrently must all observe the same array
    and identical scaling results.
    """
    results = []
    errors = []
    gf = GFClass(get_tables())
    barrier = threading.Barrier(8)

    def _worker(coeff):
        try:
            barrier.wait()
            results.append((coeff, gf.mul_table()))
        except Exception as exc:  # pragma: no cover - the failure we guard
            errors.append(exc)

    threads = [threading.Thread(target=_worker, args=(c,)) for c in range(1, 9)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 8
    first_table = results[0][1]
    elems = np.arange(256, dtype=np.uint8)
    for coeff, table in results:
        assert table is first_table  # one shared publication, no duplicates
        assert np.array_equal(table[coeff], gf._mul_logexp(np.full_like(elems, coeff), elems))
    assert not first_table.flags.writeable


def test_decode_plan_cache_concurrent_first_use():
    """Many threads decoding one erasure pattern on a cold decode cache.

    The native kernel runs without the GIL, so threads can race on the
    first build of a code's solve plan; every decode must still return
    the original codeword.
    """
    rng = np.random.default_rng(5)
    code = ReedSolomonCode(6, 3)  # cold cache
    coded = [code.encode(rng.integers(0, 256, (code.k, 256), dtype=np.uint8)) for _ in range(16)]
    barrier = threading.Barrier(8)
    mismatches, errors = [], []

    def _worker(part):
        try:
            barrier.wait()
            for cw in part:
                if not np.array_equal(code.decode({i: cw[i] for i in range(3, 9)}), cw):
                    mismatches.append(cw)
        except Exception as exc:  # pragma: no cover - the failure we guard
            errors.append(exc)

    threads = [threading.Thread(target=_worker, args=(coded[t::8],)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not mismatches
