"""Extension bench — MTTDL per scheme from the Markov reliability model.

Beyond the paper's figures: quantifies the reliability consequence of each
scheme's repair speed (the paper's motivation for fast reconstruction)
using the standard birth-death MTTDL chain fed by the same cost model as
Figs. 14-15.
"""

from repro.experiments import format_table
from repro.metrics import ReliabilityModel


def compute():
    model = ReliabilityModel(k=8, r=3)
    ranking = model.compare(h=1 / 6)
    rows = [
        [sr.scheme, f"{sr.repair_hours * 3600:.2f}", f"{sr.mttdl_years:.3e}"]
        for sr in ranking
    ]
    text = format_table(
        ["scheme", "repair (s)", "MTTDL (years)"],
        rows,
        title="Reliability — MTTDL from repair speed (k=8, r=3, 27 MB chunks)",
    )
    return model, ranking, text


def test_reliability_mttdl(save_result):
    model, ranking, text = compute()
    save_result("reliability_mttdl", text)
    by_scheme = {sr.scheme: sr.mttdl_hours for sr in ranking}
    # faster repair must buy reliability, and EC-Fusion must beat plain RS
    assert by_scheme["ecfusion"] > by_scheme["rs"] > by_scheme["msr"]
