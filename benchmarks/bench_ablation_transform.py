"""Ablation — intermediary-parity transformation vs naive re-encode.

DESIGN.md calls out the conversion path as the core module; this bench
compares the bytes the two strategies read on real data (the metric the
paper's Fig. 12 optimises).
"""

import numpy as np

from repro.experiments import format_table
from repro.fusion import FusionTransformer


def test_ablation_transform_traffic(save_result):
    tr = FusionTransformer(k=8, r=3)
    rng = np.random.default_rng(2)
    L = tr.subpacketization * 64
    data = rng.integers(0, 256, (tr.k, L), dtype=np.uint8)
    coded = tr.rs.encode(data)
    fwd = tr.rs_to_msr(data, coded[tr.k :])
    back = tr.msr_to_rs([g[tr.r :] for g in fwd.groups])
    assert np.array_equal(back.parity, coded[tr.k :])

    naive_fwd_reads = tr.k  # re-encode reads every data block
    naive_back_reads = tr.k  # and again to rebuild RS parities
    rows = [
        ["RS->MSR", fwd.cost.blocks_read, tr.k + tr.r - 1],
        ["MSR->RS", back.cost.blocks_read, naive_back_reads],
        ["roundtrip", fwd.cost.blocks_read + back.cost.blocks_read,
         naive_fwd_reads + naive_back_reads],
    ]
    save_result(
        "ablation_transform",
        format_table(
            ["direction", "highway blocks read", "naive blocks read"],
            rows,
            title="Ablation — intermediary-parity highway vs naive re-encode (k=8, r=3)",
        ),
    )
    # Fig. 12(a): the reverse direction must touch no data blocks
    assert back.cost.data_blocks_read == 0
    assert fwd.cost.blocks_read < naive_fwd_reads + tr.r
