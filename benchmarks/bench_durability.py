"""Durability-engine benchmark — MC↔analytic agreement and the geo sweep.

Two fully seeded measurements whose ``compare`` numbers are functions of
the simulation alone (no wall-clock); the committed
``benchmarks/results/durability_*.json`` hold the reference values:

* the flat-topology cross-validation ratio ``MC MTTDL / analytic
  MTTDL`` — the headline correctness number; it drifts only if the
  epoch engine's event chain stops matching the Markov model;
* the geo-topology per-scheme probability of data loss, pinning the
  structural result that EC-Fusion's MSR groups survive DC bursts that
  kill whole RS stripes.
"""

from __future__ import annotations

from repro.durability import TOPOLOGIES, DurabilityConfig, run_durability, simulate_population
from repro.experiments import format_table
from repro.metrics.reliability import mttdl_markov

SEED = 17


def test_durability_cross_validation(save_result):
    n, tol, lam, rep = 4, 1, 2e-3, 50.0
    analytic = mttdl_markov(n, tol, lam, 1.0 / rep)
    mc = simulate_population(
        n, tol, lam, rep, stripes=800, years=1.0, seed=SEED
    )
    ratio = mc["mttdl_hours"] / analytic
    rows = [
        ["analytic (Markov)", f"{analytic:.1f}", "—", "—"],
        [
            "Monte-Carlo",
            f"{mc['mttdl_hours']:.1f}",
            str(mc["losses"]),
            f"{ratio:.4f}",
        ],
    ]
    text = format_table(
        ["estimator", "MTTDL h", "losses", "MC/analytic"],
        rows,
        title=(
            f"Durability cross-validation — n={n} tol={tol} λ={lam:g}/h "
            f"repair={rep:g}h, {mc['stripes']} stripes"
        ),
    )
    assert 0.9 < ratio < 1.1, "MC drifted away from the analytic Markov MTTDL"
    entries = [
        {
            "name": "durability.cross_validation",
            "config": {"n": n, "tolerance": tol, "failure_rate": lam,
                       "repair_hours": rep, "stripes": 800, "years": 1.0,
                       "seed": SEED},
            "losses": mc["losses"],
            "compare": {
                "mc_over_analytic_mttdl": ratio,
                "pdl": mc["pdl"],
            },
        }
    ]
    save_result("durability_cross_validation", text, data={"entries": entries})


def test_durability_geo_sweep(save_result):
    config = DurabilityConfig(
        stripes=2000, years=5.0, seed=SEED, topology=TOPOLOGIES["geo"]
    )
    section = run_durability(config)
    by_scheme = {entry["scheme"]: entry for entry in section["schemes"]}
    rows = [
        [
            scheme,
            str(entry["stripes_lost"]),
            f"{entry['pdl']:.4f}",
            f"{entry['pdl_ci'][0]:.4f}",
            f"{entry['pdl_ci'][1]:.4f}",
        ]
        for scheme, entry in by_scheme.items()
    ]
    text = format_table(
        ["scheme", "stripes lost", "PDL", "Wilson lo", "Wilson hi"],
        rows,
        title=(
            f"Geo durability sweep — {config.stripes} stripes × "
            f"{config.years:g}y, k={config.k} r={config.r}, "
            "rack+DC bursts"
        ),
    )
    assert by_scheme["ecfusion"]["stripes_lost"] < by_scheme["rs"]["stripes_lost"], (
        "EC-Fusion lost its DC-burst survival advantage over RS"
    )
    entries = [
        {
            "name": "durability.geo_sweep",
            "config": {"stripes": config.stripes, "years": config.years,
                       "seed": SEED, "topology": "geo"},
            "compare": {
                f"{scheme}_pdl": entry["pdl"]
                for scheme, entry in by_scheme.items()
            },
        }
    ]
    save_result("durability_geo_sweep", text, data={"entries": entries})
