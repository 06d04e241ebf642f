"""Evaluation metrics: analytic cost models and performance ratios."""

from .._lazy import lazy_exports

__all__ = [
    "SCHEMES",
    "AnalyticCosts",
    "CostBreakdown",
    "application_performance",
    "recovery_performance",
    "overall_performance",
    "cost_effective_ratio",
    "improvement",
    "ReliabilityModel",
    "SchemeReliability",
    "mttdl_markov",
    "ServiceMix",
    "mg1_wait",
    "mg1_response",
    "client_nic_mix",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".costs": ("SCHEMES", "AnalyticCosts", "CostBreakdown"),
    ".queueing": ("ServiceMix", "client_nic_mix", "mg1_response", "mg1_wait"),
    ".reliability": ("ReliabilityModel", "SchemeReliability", "mttdl_markov"),
    ".performance": ("application_performance", "cost_effective_ratio", "improvement",
                     "overall_performance", "recovery_performance"),
})  # fmt: skip
