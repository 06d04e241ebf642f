"""The adaptive planner: one stripe population, several code families.

Wraps the same :class:`~repro.fusion.adaptation.AdaptiveSelector` the
data-carrying :class:`~repro.fusion.framework.ECFusion` uses, but emits
:class:`~repro.hybrid.plans.OpPlan` cost descriptions instead of moving
bytes, so the cluster simulator can replay million-request traces.  The
selector decides which family each stripe should hold; the planner tracks
which family each stripe *does* hold, prices every executed change through
the conversion-edge table of :mod:`repro.codes.families` (RS ↔ MSR ride
the intermediary-parity highway of Fig. 12(b), every other pair is a
journalled full re-encode) and plans writes and repairs from the resident
family's descriptor.  :class:`ECFusionPlanner` is the paper's scheme —
``("rs", "msr")`` under Algorithm 1's η threshold; :class:`MultiCodePlanner`
the policy engine re-scoring RS, MSR, LRC and FR on every trigger.

Slot layout per stripe: ``0..k-1`` data chunks always; parity/replica
chunks occupy ``k..`` in the resident family's own layout.  ``width`` is
the maximum over the enabled families, so one placement group fits every
residency.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Mapping

from ..codes.families import conversion
from ..fusion.adaptation import AdaptiveSelector, CodeKind, Conversion
from ..fusion.costmodel import CODE_FAMILIES, CostModel, SystemProfile
from ..fusion.queues import CachePolicy
from .planners import SchemePlanner
from .plans import OpPlan, PlanKind

__all__ = ["AdaptivePlanner", "ECFusionPlanner", "MultiCodePlanner"]


class AdaptivePlanner(SchemePlanner):
    """Plans for a selector-driven mix of the code families ``codes``
    (selector names); the selector's cost model supplies the descriptors."""

    def __init__(
        self, name: str, gamma: float, selector: AdaptiveSelector, codes: tuple[str, ...]
    ):
        super().__init__()
        self.name, self.gamma, self.selector = name, gamma, selector
        self.cost_model = selector.cost_model
        self.k, self.r = self.cost_model.k, self.cost_model.r
        self.families = {CodeKind(c): self.cost_model.family(c) for c in codes}
        #: executed residency per stripe that physically exists (conversion
        #: *sources* come from here; the selector's flag has already
        #: flipped by the time plans build)
        self.resident: dict[Hashable, CodeKind] = {}
        self.conversion_count = 0

    @property
    def width(self) -> int:
        return max(family.width for family in self.families.values())

    def code_of(self, stripe: Hashable) -> CodeKind:
        return self.selector.code_of(stripe)

    def code_fractions(self) -> dict[str, float]:
        """Share of the existing stripes resident in each family.

        The default family takes the remainder, so the shares sum to one
        (and an empty population counts as all-default).
        """
        total = len(self.resident)
        counts = Counter(self.resident.values())
        default = self.selector.default.value
        shares = {
            kind.value: counts[kind] / total if total else 0.0
            for kind in self.families
        }
        shares[default] = 1 - sum(v for c, v in shares.items() if c != default)
        return shares

    def storage_overhead(self) -> float:
        return sum(
            share * self.families[CodeKind(code)].storage_overhead
            for code, share in self.code_fractions().items()
        )

    # -- conversions -----------------------------------------------------------
    def _touch(self, stripe: Hashable) -> None:
        """A stripe being read or repaired physically exists."""
        if stripe not in self.resident:
            self.resident[stripe] = self.selector.code_of(stripe)

    def _execute(self, conversions: list[Conversion]) -> list[OpPlan]:
        plans = []
        for conv in conversions:
            source = self.resident.get(conv.stripe)
            if source is None or source is conv.target:
                continue  # no data yet, or already held in the target family
            self.conversion_count += 1
            self.resident[conv.stripe] = conv.target
            plans.append(self._conversion_plan(source, conv.target))
        return plans

    def _conversion_plan(self, source: CodeKind, target: CodeKind) -> OpPlan:
        """The one plan of the ``source → target`` edge."""
        key = (source, target)
        plan = self._plans.get(key)
        if plan is None:
            reads, writes, compute = conversion(
                self.families[source], self.families[target], self.gamma
            )
            plan = self._plans[key] = OpPlan(
                PlanKind.CONVERSION,
                compute_ops=compute,
                reads=reads,
                writes=writes,
                distributed=True,
            )
        return plan

    # -- operations ---------------------------------------------------------------
    def plan_write(self, stripe: Hashable) -> list[OpPlan]:
        conversions = self.selector.on_write(stripe)
        # A full-stripe write re-encodes from fresh data, so a flip of the
        # *written* stripe is free; idle-expiry conversions of other
        # stripes still cost real work.
        plans = (
            self._execute([c for c in conversions if c.stripe != stripe])
            if conversions
            else []
        )
        kind = self.resident[stripe] = self.selector.code_of(stripe)
        plans.append(self._write_plan(self.families[kind]))
        return plans

    def plan_read(self, stripe: Hashable, block: int) -> list[OpPlan]:
        self._check_block(block)
        self._touch(stripe)
        plans = self._execute(self.selector.on_read(stripe))
        plans.append(self._read_one(block))
        return plans

    def _on_recovery(self, stripe: Hashable):
        """Recovery trigger: (executed conversion plans, resident family)."""
        self._touch(stripe)
        plans = self._execute(self.selector.on_recovery(stripe))
        return plans, self.families[self.resident[stripe]]

    def plan_recovery(self, stripe: Hashable, block: int) -> list[OpPlan]:
        self._check_block(block)
        plans, family = self._on_recovery(stripe)
        plans.append(self._recovery_plan(family, block))
        return plans

    def plan_parity_recovery(self, stripe: Hashable, index: int) -> list[OpPlan]:
        """Reconstruction of one lost parity chunk (current-layout index)."""
        plans, family = self._on_recovery(stripe)
        if not 0 <= index < family.parities:
            raise ValueError(f"{family.label} parity index {index} out of range")
        plans.append(self._recovery_plan(family, self.k + index))
        return plans

    # -- reporting ----------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        return {
            **self.selector.stats(),
            "executed_conversions": self.conversion_count,
            "storage_overhead": self.storage_overhead(),
        }


class ECFusionPlanner(AdaptivePlanner):
    """Adaptive RS(k, r) / MSR(2r, r, r, r²) hybrid (the paper's EC-Fusion).

    Parameters mirror :class:`repro.fusion.framework.ECFusion`.
    """

    def __init__(
        self,
        k: int,
        r: int,
        gamma: float,
        profile: SystemProfile | None = None,
        queue_capacity: int = 256,
        policy: CachePolicy = CachePolicy.LRU,
        margin: float = 0.0,
        idle_window: int | None = None,
    ):
        profile = (profile or SystemProfile()).with_gamma(gamma)
        selector = AdaptiveSelector(
            CostModel(k, r, profile),
            queue_capacity=queue_capacity,
            policy=policy,
            margin=margin,
            idle_window=idle_window,
        )
        super().__init__(f"EC-Fusion({k},{r})", gamma, selector, ("rs", "msr"))
        self.q = self.families[CodeKind.MSR].copies


class MultiCodePlanner(AdaptivePlanner):
    """Adaptive policy over the RS/MSR/LRC/FR code families.

    Parameters mirror :class:`ECFusionPlanner` plus the multi-code knobs
    of :class:`~repro.fusion.costmodel.CostModel` (``lrc_r``/``lrc_z``,
    ``fr_rho``, ``storage_weight``) and the per-transition hysteresis
    ``margins`` (scalar fraction or ``(current, target)`` mapping).
    """

    def __init__(
        self,
        k: int,
        r: int,
        gamma: float,
        profile: SystemProfile | None = None,
        codes: tuple[str, ...] = CODE_FAMILIES,
        queue_capacity: int = 256,
        policy: CachePolicy = CachePolicy.LRU,
        margins: float | Mapping[tuple[str, str], float] = 0.1,
        idle_window: int | None = None,
        lrc_r: int = 2,
        lrc_z: int = 2,
        fr_rho: int = 2,
        storage_weight: float = 1.5,
    ):
        profile = (profile or SystemProfile()).with_gamma(gamma)
        cost_model = CostModel(
            k,
            r,
            profile,
            lrc_r=lrc_r,
            lrc_z=lrc_z,
            fr_rho=fr_rho,
            storage_weight=storage_weight,
        )
        selector = AdaptiveSelector(
            cost_model,
            queue_capacity=queue_capacity,
            policy=policy,
            idle_window=idle_window,
            codes=codes,
            margins=margins,
        )
        super().__init__(f"Policy({k},{r})", gamma, selector, tuple(codes))
