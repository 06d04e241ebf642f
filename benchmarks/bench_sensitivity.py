"""Extension bench — failure-weight sensitivity of EC-Fusion's gain vs RS.

Sweeps the recovery-to-application ratio and locates the break-even point;
checks the gain is monotone in failure weight and the conversion tax stays
small throughout.
"""

from repro.experiments import sensitivity


def test_sensitivity_failure_weight(save_result):
    result = sensitivity.compute()
    save_result("sensitivity_failure_weight", sensitivity.render(result))
    assert result.gain_is_monotone_in_failure_weight()
    assert result.break_even_rate() is not None
    assert result.break_even_rate() <= 0.06
    assert max(result.conversion_shares.values()) < 0.05
