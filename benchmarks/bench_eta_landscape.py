"""Extension bench — the η switching threshold over (λ, α) platform regimes.

Maps where EC-Fusion's adaptive rule actually has room to operate: η must
be finite-positive for switching to matter, which requires the CPU to be
fast enough relative to the network.
"""

import math

from repro.experiments import eta_landscape


def test_eta_landscape(save_result):
    results = [eta_landscape.compute(k) for k in (6, 8)]
    save_result(
        "eta_landscape",
        "\n\n".join(eta_landscape.render(r) for r in results),
    )
    for land in results:
        # the paper's operating point (1 Gbps, SIMD-class alpha) is inside
        # the adaptive region
        eta = land.eta(125e6, 5e9)
        assert 0 < eta < math.inf
        # and eta never exceeds the bandwidth-only limit
        for value in land.grid.values():
            if 0 < value < math.inf:
                assert value <= land.limit() + 1e-9
