"""Table III — the closed-form cost model itself.

Regenerates the per-block cost comparison between RS(k, r) and
MSR(2r, r, r, r²) and checks the orderings the whole design relies on:
RS writes cheaper, MSR recovery cheaper, η finite and positive.
"""

import math

from repro.experiments import format_table
from repro.fusion.costmodel import CostModel, SystemProfile


def compute():
    rows = []
    models = {}
    for k in (6, 8):
        m = CostModel(k, 3, SystemProfile())
        models[k] = m
        rows.append(
            [
                f"EC-Fusion({k},3)",
                m.write_cost_rs,
                m.write_cost_msr,
                m.recovery_cost_rs,
                m.recovery_cost_msr,
                m.eta,
            ]
        )
    text = format_table(
        ["config", "W_RS", "W_MSR", "R_RS", "R_MSR", "eta"],
        rows,
        title="Table III — per-block cost model (27 MB chunks, 1 Gbps, alpha=5e9)",
    )
    return models, text


def test_table3_costmodel(save_result):
    models, text = compute()
    save_result("table3_costmodel", text)
    for m in models.values():
        assert m.write_cost_rs < m.write_cost_msr
        assert m.recovery_cost_msr < m.recovery_cost_rs
        assert 0 < m.eta < math.inf
