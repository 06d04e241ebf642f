"""Table VII — EC-Fusion improvement over every baseline, k ∈ {6, 8}.

The paper's table is uniformly non-negative; the reproduction checks the
same dominance on overall performance for all (baseline, k, trace) cells.
"""

from repro.experiments import table7_summary


def test_table7_summary(bench_config, save_result):
    table = table7_summary.compute(bench_config, ks=(8, 6))
    save_result("table7_summary", table7_summary.render(table))
    for baseline in table7_summary.BASELINES:
        for k in table.ks:
            for trace in table.traces:
                assert table.overall_gain(baseline, k, trace) > -0.02, (
                    baseline,
                    k,
                    trace,
                )
