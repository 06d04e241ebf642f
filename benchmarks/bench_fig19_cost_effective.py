"""Fig. 19 — cost-effective ratio ζ = 1/(ε·ρ).

Shape checks: EC-Fusion's ζ tops every baseline (paper: +16.71 % vs RS,
+77.90 % vs MSR, +19.52 % vs LRC, +26.93 % vs HACFS).
"""

from repro.experiments import fig19_cost_effective


def test_fig19_cost_effective(bench_config, save_result):
    fig = fig19_cost_effective.compute(bench_config)
    save_result("fig19_cost_effective", fig19_cost_effective.render(fig))
    traces = fig.campaign.traces()
    for other in ("RS", "MSR", "LRC", "HACFS"):
        assert max(fig.fusion_gain_vs(other, t) for t in traces) > 0, other
