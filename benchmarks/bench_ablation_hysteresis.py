"""Ablation — the hysteresis band Δ of eq. (2).

Sweeps Δ as a fraction of η on an adversarial alternating workload and
reports conversion churn: a wider band suppresses ping-ponging at the cost
of slower adaptation (the trade-off §III-C motivates the band with).
"""

from repro.experiments import format_table
from repro.fusion import AdaptiveSelector, CostModel, SystemProfile


def churn_for_margin(margin_fraction: float) -> int:
    cm = CostModel(8, 3, SystemProfile(alpha=1e9))
    sel = AdaptiveSelector(cm, queue_capacity=64, margin=margin_fraction * cm.eta)
    # adversarial stream: δ oscillates around η
    lo = max(1, int(cm.eta))
    hi = lo + 1
    for _ in range(50):
        for _ in range(hi):
            sel.on_write("s")
        for _ in range(2):
            sel.on_recovery("s")
        for _ in range(3):
            sel.on_recovery("s")
    return len(sel.conversions)


def test_ablation_hysteresis(save_result):
    fractions = (0.0, 0.1, 0.25, 0.5, 0.9)
    churn = [churn_for_margin(f) for f in fractions]
    rows = [[f"{f:.0%}", c] for f, c in zip(fractions, churn)]
    save_result(
        "ablation_hysteresis",
        format_table(
            ["margin Δ/η", "conversions"],
            rows,
            title="Ablation — hysteresis width vs conversion churn (adversarial stream)",
        ),
    )
    assert churn[0] >= churn[-1]  # wider band never churns more
