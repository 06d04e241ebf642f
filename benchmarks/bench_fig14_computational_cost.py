"""Fig. 14 — computational cost (mathematical analysis).

One stripe of k×64 KB written, one 64 KB column reconstructed.  Checks the
paper's savings of EC-Fusion vs MSR: ≥ 96.30 % (application) and
≥ 79.24 % (recovery).
"""

from repro.experiments import fig14_computation


def test_fig14_computational_cost(save_result):
    results = [fig14_computation.compute(k) for k in (6, 8)]
    save_result("fig14_computational_cost", fig14_computation.render(results))
    for res in results:
        app_save, rec_save = res.fusion_saving_vs_msr()
        assert app_save >= 0.9630 - 1e-3
        assert rec_save >= 0.7924 - 1e-3
