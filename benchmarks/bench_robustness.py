"""Extension bench — seed robustness of the Table VII dominance pattern.

Reruns the read-dominant campaign under independent seeds; EC-Fusion's
gain over every baseline must stay positive with a small spread.
"""

from repro.experiments import robustness


def test_robustness_across_seeds(save_result):
    result = robustness.compute()
    save_result("robustness_seeds", robustness.render(result))
    for baseline in robustness.BASELINES:
        assert result.always_dominates(baseline), baseline
        assert result.std_gain(baseline) < 0.05, baseline
