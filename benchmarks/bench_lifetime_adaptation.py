"""Extension bench — lifetime (bathtub-curve) adaptation.

Replays a device lifetime against EC-Fusion twice: plain Algorithm 1
pins its MSR-resident set (and storage premium) through the useful-life
lull, while the idle-expiry extension drains it and re-adapts at wearout.
"""

from repro.experiments import lifetime


def test_lifetime_adaptation(save_result):
    result = lifetime.compute()
    save_result("lifetime_adaptation", lifetime.render(result))
    assert result.paper_set_pinned_through_lull()
    assert result.extension_drains_in_lull()
