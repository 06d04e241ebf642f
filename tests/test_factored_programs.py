"""Every factored program is its dense matrix, byte for byte.

A :class:`~repro.gf.CodingPlan` built with ``factors`` checks at
construction that they multiply to its matrix; the ``native`` kernel then
runs the chain tile by tile through scratch rows, and every NumPy backend
applies the dense matrix.  This referee byte-compares each factored program
the bytes path runs against :func:`repro.gf.apply_to_blocks_naive` of its
dense matrix:

* the MSR encoder (whole and shortened groups);
* the RS → MSR call for each derived group, the failovers included (any
  group derived, or none when the RS parity is lost);
* the MSR → RS merge for each set of groups read from their data;
* the copy-through write programs of both codecs (data rows in ``out``,
  parity rows in ``out_tail``; RS's is its dense generator).

Widths run from below one vector through ragged ones to either side of the
width from which a chain runs instead of its dense units and of the
kernel's streaming threshold; every array is C-contiguous, 64-byte aligned,
misaligned by 16 or row-strided; calls are plain and accumulating, and
nothing outside the output window may move.  CI runs it under every forced
backend and once more through the ctypes entry.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.transform import FusionTransformer
from repro.gf import apply_to_blocks_naive
from repro.gf.native import CHAIN_MIN_WIDTH, STREAM_BYTES

#: EC-Fusion shapes: two whole groups, and three groups with a padded last
SHAPES = [(6, 3), (5, 2), (7, 3)]
LAYOUTS = ["contiguous", "aligned", "misaligned", "row-strided"]
POISON = 0x5A


@functools.cache
def programs(k: int, r: int) -> dict:
    """name → (plan, input split, output split) of every factored program of
    EC-Fusion(k, r); a split is the row count of the first array or None."""
    tr = FusionTransformer(k, r)
    l = tr.subpacketization
    found = {"rs-write": (tr.rs._write_plan(k), None, k)}
    for rows in sorted({len(g) for g in tr._instances("msr")}):
        found[f"msr-encode/{rows}"] = (tr.msr._shortened_parity_plan(rows), None, None)
        found[f"msr-write/{rows}"] = (tr.msr._write_plan(rows), None, rows * l)
    for derived in (*range(tr.q), None):
        for plan, g, h in tr._derivations[derived]:
            found[f"rs-to-msr/{derived}/{g}"] = (plan, k * l, None if h is None else r * l)
    groups = [len(rows) * l for rows in tr._instances("msr")]
    for n in range(tr.q + 1):
        for from_data in itertools.combinations(range(tr.q), n):
            for plan, i, j in tr._merges[from_data]:
                first = groups[i] if i in from_data else r * l
                found[f"msr-to-rs/{from_data}/{i}"] = (plan, None if j is None else first, None)
    return found


def _widths(n_out: int) -> list[int]:
    """Below one vector, ragged, either side of the width from which the
    chain runs instead of the dense units, and either side of the streaming
    threshold (a call streams from ``STREAM_BYTES`` output bytes on)."""
    edge = -(-STREAM_BYTES // n_out)
    return [1, 17, 63, 200, CHAIN_MIN_WIDTH - 1, CHAIN_MIN_WIDTH + 3, edge - 67, edge, edge + 45]


def _rows(rows: int, width: int, layout: str, fill=None):
    """A ``(rows, width)`` uint8 view in ``layout`` and the buffer behind it,
    poisoned around the view (and inside it unless ``fill`` makes it)."""
    if layout == "contiguous":
        buf = view = np.empty((rows, width), np.uint8)
    elif layout == "row-strided":
        buf = np.empty((2 * rows, width), np.uint8)
        view = buf[::2]
    else:
        pitch = -(-width // 64) * 64 + 64
        buf = np.empty(rows * pitch + 80, np.uint8)
        start = -buf.ctypes.data % 64 + (16 if layout == "misaligned" else 0)
        view = np.lib.stride_tricks.as_strided(
            buf[start:], shape=(rows, width), strides=(pitch, 1), writeable=True
        )
    buf[...] = POISON
    if fill is not None:
        view[...] = fill(rows, width)
    return view, buf


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    pick=st.integers(0, 10**6),
    width_pick=st.integers(0, 8),
    layout_in=st.sampled_from(LAYOUTS),
    layout_out=st.sampled_from(LAYOUTS),
    accumulate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_factored_program_is_its_dense_matrix(
    shape, pick, width_pick, layout_in, layout_out, accumulate, seed
):
    progs = programs(*shape)
    name = sorted(progs)[pick % len(progs)]
    plan, split_in, split_out = progs[name]
    n_out, n_in = plan.shape
    width = _widths(n_out)[width_pick]
    rng = np.random.default_rng(seed)

    def noise(rows, cols):
        return rng.integers(0, 256, (rows, cols), dtype=np.uint8)

    blocks, _ = _rows(n_in, width, layout_in, fill=noise)
    out, frame = _rows(n_out, width, layout_out)
    if accumulate:
        out[...] = noise(n_out, width)
    before, frame_before = out.copy(), frame.copy()
    head, tail = (blocks, None) if split_in is None else (blocks[:split_in], blocks[split_in:])
    dest, dest_tail = (out, None) if split_out is None else (out[:split_out], out[split_out:])

    plan.apply_into(head, dest, accumulate, tail, dest_tail)

    want = apply_to_blocks_naive(dense(plan), blocks)
    assert np.array_equal(out, before ^ want if accumulate else want), (name, width)
    # nothing outside the output window moved
    out[...] = before
    assert np.array_equal(frame, frame_before), (name, width, layout_out)


def dense(plan) -> np.ndarray:
    """The matrix the plan was compiled from, from its nonzero entries."""
    m = np.zeros(plan.shape, np.uint8)
    m[plan._entry_out, plan._entry_in] = plan._entry_coeff
    return m


@pytest.mark.parametrize("shape", SHAPES)
def test_every_program_saves_units_or_runs_its_dense_matrix(shape):
    """The kernel runs a chain only where it has fewer units than the dense
    matrix has nonzeros, and below ``CHAIN_MIN_WIDTH`` only where it needs
    at most half of them.  At (6, 3) every program is a chain but two, each
    one dense step: the RS write, and a merge reading both groups' data."""
    for name, (plan, _, _) in programs(*shape).items():
        prog = plan._native_program()
        assert prog.nunits <= plan.nnz, name
        if prog.scratch:
            # the dense units follow, unless the chain runs at every width
            assert prog.narrow == (0 if 2 * prog.nunits <= plan.nnz else plan.nnz), name
        if shape == (6, 3) and name not in ("rs-write", "msr-to-rs/(0, 1)/0"):
            assert plan._factors is not None, name
            assert prog.scratch and prog.nunits < plan.nnz, name
