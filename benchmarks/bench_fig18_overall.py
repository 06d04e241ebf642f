"""Fig. 18 — overall performance ε (application + recovery, weighted).

Shape checks: EC-Fusion beats MSR everywhere (paper: up to 77.98 %),
improves most on RS for the read-dominant trace (paper: 18.15 % on mds1),
and its conversion overhead stays a small share of the total.
"""

from repro.experiments import fig18_overall


def test_fig18_overall(bench_config, save_result):
    fig = fig18_overall.compute(bench_config)
    save_result("fig18_overall", fig18_overall.render(fig))
    traces = fig.campaign.traces()
    for other in ("RS", "MSR", "LRC", "HACFS"):
        for t in traces:
            assert fig.fusion_improvement_vs(other, t) > -0.02, (other, t)
    assert fig.fusion_improvement_vs("RS", "mds1") > 0.1
    assert max(fig.conversion_fraction(t) for t in traces) < 0.2
