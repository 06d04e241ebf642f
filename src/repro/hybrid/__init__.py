"""Redundancy-scheme planners: one static, one adaptive, and HACFS.

Every contender is a :class:`~repro.hybrid.planners.SchemePlanner` the
cluster simulator and the analytic metrics share, pricing from the
code-family descriptors of :mod:`repro.codes.families`:
:class:`~repro.hybrid.planners.StaticPlanner` holds every stripe in one
family (``RSPlanner``, ``MSRPlanner``, ``LRCPlanner``, ``FRPlanner``);
:class:`~repro.hybrid.adaptive.AdaptivePlanner` follows an
:class:`~repro.fusion.adaptation.AdaptiveSelector` across several
(``ECFusionPlanner``: ``("rs", "msr")`` under the paper's η threshold;
``MultiCodePlanner``: the four-family policy engine); and
:class:`~repro.hybrid.hacfs.HACFSPlanner` moves stripes between two LRC
shapes by hotness.  :func:`make_planner` builds any of them by name.
"""

from typing import Callable

from .adaptive import AdaptivePlanner, ECFusionPlanner, MultiCodePlanner
from .hacfs import HACFSPlanner
from .planners import (
    FRPlanner,
    LRCPlanner,
    MSRPlanner,
    RSPlanner,
    SchemePlanner,
    StaticPlanner,
)
from .plans import OpPlan, PlanKind

__all__ = [
    "OpPlan",
    "PlanKind",
    "SchemePlanner",
    "StaticPlanner",
    "RSPlanner",
    "MSRPlanner",
    "LRCPlanner",
    "FRPlanner",
    "HACFSPlanner",
    "AdaptivePlanner",
    "ECFusionPlanner",
    "MultiCodePlanner",
    "PLANNERS",
    "make_planner",
]

#: scheme name → ``builder(k, r, gamma, profile, **knobs)`` in the shapes the
#: paper evaluates: LRC(k, 2, 2), FR on the ρk+1-node DRESS layout.  Only
#: the adaptive schemes take knobs (their own keyword arguments) and price
#: decisions with ``profile``.
PLANNERS: dict[str, Callable[..., SchemePlanner]] = {
    "RS": lambda k, r, g, profile: RSPlanner(k, r, g),
    "MSR": lambda k, r, g, profile: MSRPlanner(k, r, g),
    "LRC": lambda k, r, g, profile: LRCPlanner(k, 2, 2, g),
    "FR": lambda k, r, g, profile: FRPlanner(k, k + 1, g),
    "HACFS": lambda k, r, g, profile, **knobs: HACFSPlanner(k, g, **knobs),
    "EC-Fusion": lambda k, r, g, profile, **knobs: ECFusionPlanner(
        k, r, g, profile=profile, **knobs
    ),
    "Policy": lambda k, r, g, profile, **knobs: MultiCodePlanner(
        k, r, g, profile=profile, **knobs
    ),
}


def make_planner(
    name: str, k: int, r: int, gamma: float, profile=None, **knobs
) -> SchemePlanner:
    """A fresh planner for the scheme called ``name`` (a :data:`PLANNERS` key)."""
    return PLANNERS[name](k, r, gamma, profile, **knobs)
