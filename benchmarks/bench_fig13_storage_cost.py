"""Fig. 13 — storage cost vs hybrid ratio (mathematical analysis).

Regenerates the ρ-vs-h series for all five schemes at k ∈ {6, 8} and
checks the paper's claims: EC-Fusion ≤ +9.1 % over RS and never above
LRC/HACFS across the swept range.
"""

from repro.experiments import fig13_storage


def test_fig13_storage_cost(save_result):
    results = [fig13_storage.compute(k) for k in (6, 8)]
    save_result("fig13_storage_cost", fig13_storage.render(results))
    for res in results:
        assert res.max_increase_over_rs() <= 0.091 + 1e-6
        assert res.never_exceeds_lrc_hacfs()
