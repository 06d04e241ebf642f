"""Extension bench — the repair-bandwidth spectrum on real bytes.

Positions every implemented code family on the axis the paper's design
exploits: how much data a single-chunk repair moves.  RS reads k whole
blocks; Hitchhiker's piggybacking trims ~25 %; LRC reads one local group;
the coupled-layer MSR reads the information-theoretic floor (n−1)/r.
"""

import numpy as np
import pytest

from repro.codes import (
    HitchhikerCode,
    LocalReconstructionCode,
    MSRCode,
    ReedSolomonCode,
)
from repro.experiments import format_table

L = 9 * 2 * 64  # divisible by every sub-packetization used below


@pytest.fixture(scope="module")
def stripe_family():
    rng = np.random.default_rng(0)
    codes = [
        ReedSolomonCode(8, 3),
        HitchhikerCode(8, 3),
        LocalReconstructionCode(8, 2, 2),
        MSRCode(6, 3, verify="off"),
    ]
    out = []
    for code in codes:
        data = rng.integers(0, 256, (code.k, L), dtype=np.uint8)
        out.append((code, code.encode(data)))
    return out


def test_repair_bandwidth_spectrum(stripe_family, save_result):
    results = {}
    for code, coded in stripe_family:
        shards = {i: coded[i] for i in range(code.n) if i != 0}
        results[code.name] = (code, coded, code.repair(0, shards))
    rows = []
    for name, (code, coded, res) in results.items():
        assert np.array_equal(res.block, coded[0]), name
        blocks_moved = res.total_bytes_read / L
        rows.append([name, code.n, round(blocks_moved, 3), round(blocks_moved / code.k, 3)])
    save_result(
        "repair_spectrum",
        format_table(
            ["code", "n", "blocks moved", "fraction of naive k"],
            rows,
            title="Repair-bandwidth spectrum: one data-chunk rebuild (real bytes)",
        ),
    )
    moved = {name: r[2] for name, r in zip(results, rows)}
    assert moved["MSR(6,3,3,9)"] < moved["LRC(8,2,2)"]
    assert moved["LRC(8,2,2)"] < moved["Hitchhiker(8,3)"]
    assert moved["Hitchhiker(8,3)"] < moved["RS(8,3)"]
