"""Table IV — code allocation per workload category, derived from Algorithm 1.

Regenerates the paper's allocation table by driving the adaptive selector
with one synthetic event mix per category and reading back the flags.
"""

from repro.experiments import table4_allocation


def test_table4_allocation(save_result):
    result = table4_allocation.compute()
    save_result("table4_allocation", table4_allocation.render(result))
    assert result.matches_paper()
