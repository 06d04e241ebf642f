"""Micro-benchmarks of the RS↔MSR transformation (§III-D).

Quantifies the intermediary-parity highway: conversion touches far fewer
bytes than a full re-encode, and MSR→RS reads no data blocks at all.
"""

import numpy as np
import pytest

from repro.fusion import FusionTransformer

BLOCKS = 4


@pytest.fixture(scope="module")
def tr():
    return FusionTransformer(k=8, r=3)


@pytest.fixture(scope="module")
def stripe(tr):
    rng = np.random.default_rng(1)
    L = tr.subpacketization * 128
    data = rng.integers(0, 256, (tr.k, L), dtype=np.uint8)
    coded = tr.rs.encode(data)
    return data, coded[tr.k :]


def test_rs_to_msr(benchmark, tr, stripe):
    data, parity = stripe
    out = benchmark(tr.rs_to_msr, data, parity)
    assert len(out.groups) == tr.q
    # Fig. 12(b): the last data group is never read
    assert out.cost.data_blocks_read == (tr.q - 1) * tr.r


def test_msr_to_rs(benchmark, tr, stripe):
    data, parity = stripe
    groups = tr.rs_to_msr(data, parity).groups
    parities = [g[tr.r :] for g in groups]
    out = benchmark(tr.msr_to_rs, parities)
    assert np.array_equal(out.parity, parity)
    # Fig. 12(a): parity-only — zero data reads
    assert out.cost.data_blocks_read == 0


def test_naive_reencode_baseline(benchmark, tr, stripe):
    """What the conversion would cost without the intermediary highway:
    re-encoding every group from scratch (reads all k data blocks), the
    converter's full re-encode of a fresh MSR stripe."""
    data, _ = stripe
    out = benchmark(tr.encode, data, "msr")
    assert len(out.parity) == tr.q
