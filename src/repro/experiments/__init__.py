"""Experiment modules — one per figure/table of the paper's evaluation.

* Figs. 13–15: analytic (the "mathematical analysis" of §IV-B);
* Figs. 16–19 + Table VII: projections of one shared simulation campaign
  (:mod:`repro.experiments.simulation`).
"""

from .._lazy import lazy_exports

__all__ = [
    "ExperimentConfig",
    "build_schemes",
    "format_table",
    "SCHEME_ORDER",
    "CampaignResults",
    "run_campaign",
    "set_default_jobs",
    "CampaignTask",
    "campaign_tasks",
    "run_campaign_tasks",
    "map_tasks",
    "eta_landscape",
    "lifetime",
    "parallel",
    "robustness",
    "sensitivity",
    "fig13_storage",
    "fig14_computation",
    "fig15_transmission",
    "fig16_application",
    "fig17_recovery",
    "fig18_overall",
    "fig19_cost_effective",
    "fig_pipeline_repair",
    "table4_allocation",
    "table7_summary",
    "tournament",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".parallel": ("parallel", "CampaignTask", "campaign_tasks", "map_tasks", "run_campaign_tasks"),
    ".runner": ("SCHEME_ORDER", "ExperimentConfig", "build_schemes", "format_table"),
    ".simulation": ("CampaignResults", "run_campaign", "set_default_jobs"),
    **{f".{name}": (name,) for name in (
        "eta_landscape", "lifetime", "robustness", "sensitivity", "fig13_storage",
        "fig14_computation", "fig15_transmission", "fig16_application", "fig17_recovery",
        "fig18_overall", "fig19_cost_effective", "fig_pipeline_repair", "table4_allocation",
        "table7_summary", "tournament",
    )},
})  # fmt: skip
