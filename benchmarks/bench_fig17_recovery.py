"""Fig. 17 — recovery performance under online recovery workloads.

Shape checks: EC-Fusion cuts reconstruction latency deeply vs RS and MSR
(paper: up to 67.83 % / 69.10 %) and clearly vs LRC (paper: 38.36 %).
"""

from repro.experiments import fig17_recovery


def test_fig17_recovery(bench_config, save_result):
    fig = fig17_recovery.compute(bench_config)
    save_result("fig17_recovery", fig17_recovery.render(fig))
    traces = fig.campaign.traces()
    assert max(fig.fusion_saving_vs("RS", t) for t in traces) > 0.45
    assert max(fig.fusion_saving_vs("MSR", t) for t in traces) > 0.5
    assert max(fig.fusion_saving_vs("LRC", t) for t in traces) > 0.25
