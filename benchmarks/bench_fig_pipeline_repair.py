"""Pipelined repair figure — ECPipe-style streaming vs conventional pull.

Shape checks: chunked hop-by-hop repair beats conventional reconstruction
by at least the committed 1.5x floor on single-stripe RS repair, and the
storm rows (full recovery-scheduler path) still clear 1.5x.
"""

from repro.experiments import fig_pipeline_repair


def test_fig_pipeline_repair(bench_config, save_result):
    fig = fig_pipeline_repair.compute(bench_config)
    save_result("fig_pipeline_repair", fig_pipeline_repair.render(fig))
    assert fig.speedup("single", "RS") >= 1.5
    assert fig.speedup("single", "MSR") >= 1.5
    assert fig.speedup("storm", "RS") >= 1.5
    assert fig.speedup("storm", "MSR") >= 1.5
