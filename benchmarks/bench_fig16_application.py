"""Fig. 16 — application performance under the four Table V traces.

Closed-loop replay on the simulated cluster.  Shape checks: EC-Fusion
tracks RS closely (paper: ≤ 1.04 % overhead) and beats MSR by a wide,
write-intensity-correlated margin (paper: up to 78.03 %).
"""

from repro.experiments import fig16_application


def test_fig16_application(bench_config, save_result):
    fig = fig16_application.compute(bench_config)
    traces = fig.campaign.traces()
    save_result(
        "fig16_application",
        fig16_application.render(fig),
        data={
            "epsilon1": {
                scheme: {t: fig.epsilon1(scheme, t) for t in traces}
                for scheme in ("RS", "MSR", "EC-Fusion")
            },
            "fusion_improvement_vs_msr": {
                t: fig.fusion_improvement_vs("MSR", t) for t in traces
            },
            "fusion_overhead_vs_rs": {t: fig.fusion_overhead_vs_rs(t) for t in traces},
        },
    )
    assert max(fig.fusion_improvement_vs("MSR", t) for t in traces) > 0.6
    assert max(fig.fusion_overhead_vs_rs(t) for t in traces) < 0.03
    # the MSR gap grows with write intensity (mds1 read-heavy -> rsrch0 write-heavy)
    assert fig.fusion_improvement_vs("MSR", "rsrch0") > fig.fusion_improvement_vs(
        "MSR", "mds1"
    )
