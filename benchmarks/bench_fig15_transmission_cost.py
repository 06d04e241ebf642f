"""Fig. 15 — transmission cost (mathematical analysis).

Chunks moved per stripe write and per chunk recovery.  Checks: EC-Fusion
saves ≥ 8.33 % vs LRC on application, up to ~79.1 % vs RS and ≥ 16.67 %
vs HACFS on recovery.
"""

from repro.experiments import fig15_transmission


def test_fig15_transmission_cost(save_result):
    results = [fig15_transmission.compute(k) for k in (6, 8)]
    save_result("fig15_transmission_cost", fig15_transmission.render(results))
    for res in results:
        assert res.fusion_app_saving_vs_lrc() >= 0.0833 - 1e-4
        assert res.fusion_rec_saving_vs_hacfs() >= 0.1667 - 1e-4
    assert results[1].fusion_rec_saving_vs_rs() >= 0.79
