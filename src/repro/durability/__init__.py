"""Monte-Carlo durability campaigns over hierarchical topologies.

The paper's durability argument — faster repair shrinks the window in
which extra failures exceed the code's tolerance — is asserted
analytically by :mod:`repro.metrics.reliability`.  This package tests it
empirically at fleet scale: an epoch-based fast-forward engine
(:mod:`repro.durability.engine`) sweeps years of seeded failure/repair
traces over up to millions of stripes, on topologies
(:mod:`repro.durability.topology`) with correlated rack/DC bursts and
oversubscription-stretched cross-domain repair, reporting MTTDL and
probability-of-data-loss per scheme with Wilson/bootstrap confidence
intervals (:mod:`repro.durability.stats`).

On the ``flat`` topology the engine's assumptions match the analytic
Markov chain exactly, so the two are cross-validated against each other
in ``tests/test_durability.py``.
"""

from .._lazy import lazy_exports

__all__ = [
    "MC_SCHEMES",
    "DurabilityConfig",
    "run_durability",
    "simulate_population",
    "format_durability_table",
    "TopologySpec",
    "TOPOLOGIES",
    "resolve_topology",
    "wilson_interval",
    "bootstrap_rate_interval",
    "rule_of_three_mttdl",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("MC_SCHEMES", "DurabilityConfig", "format_durability_table", "run_durability",
                "simulate_population"),
    ".stats": ("bootstrap_rate_interval", "rule_of_three_mttdl", "wilson_interval"),
    ".topology": ("TOPOLOGIES", "TopologySpec", "resolve_topology"),
})  # fmt: skip
