"""The planner protocol and the static (single-code) planner.

A planner answers, for one chunk size γ, what a full-stripe write, a
single-chunk read, and a single-chunk recovery cost in reads/writes/compute
— the quantities Table III of the paper tabulates.  The numbers themselves
live in the code-family descriptors of :mod:`repro.codes.families`; a
planner only turns them into :class:`~repro.hybrid.plans.OpPlan` objects.
:class:`StaticPlanner` does that for one fixed family, and
:class:`RSPlanner`, :class:`MSRPlanner`, :class:`LRCPlanner` and
:class:`FRPlanner` are its constructions for the four baselines.

Compute units are GF multiply/XOR *byte* operations, matching the paper's
"number of XOR/GF multiplications" α denominator.
"""

from __future__ import annotations

import abc
from typing import Hashable

from ..codes.families import (
    BaselineMSRFamily,
    CodeFamily,
    FRFamily,
    LRCFamily,
    RSFamily,
)
from .plans import OpPlan, PlanKind

__all__ = [
    "SchemePlanner",
    "StaticPlanner",
    "RSPlanner",
    "MSRPlanner",
    "LRCPlanner",
    "FRPlanner",
]


class SchemePlanner(abc.ABC):
    """Interface every redundancy scheme exposes to the simulator.

    Planners are *stateful* for adaptive schemes (HACFS, EC-Fusion track
    per-stripe heat); :class:`StaticPlanner` ignores the stripe ID.  The
    plans themselves are not: a planner builds each shape of plan once and
    hands out that one read-only :class:`OpPlan` every time (the lists
    that carry them are fresh per call).
    """

    #: human-readable scheme name for experiment tables
    name: str
    #: number of data chunks per stripe
    k: int
    #: chunk size in bytes
    gamma: float

    def __init__(self):
        #: interned plans by shape: ``("write", family)``, read slot,
        #: ``(family, slot)`` of a recovery, … — whatever the builder keys on
        self._plans: dict = {}
        #: ``id(recovery plan) → its write-less twin`` (``None`` until a
        #: degraded read asks) for the interned recovery plans, which
        #: ``_plans`` keeps alive, so no other plan can share their ids
        self._degraded: dict[int, OpPlan | None] = {}

    @property
    @abc.abstractmethod
    def width(self) -> int:
        """Maximum number of stripe slots the scheme may occupy."""

    @abc.abstractmethod
    def storage_overhead(self) -> float:
        """Current average ρ = stored chunks / data chunks."""

    @abc.abstractmethod
    def plan_write(self, stripe: Hashable) -> list[OpPlan]:
        """Full-stripe write of k data chunks (HDFS write-once semantics)."""

    @abc.abstractmethod
    def plan_read(self, stripe: Hashable, block: int) -> list[OpPlan]:
        """Read of one data chunk."""

    @abc.abstractmethod
    def plan_recovery(self, stripe: Hashable, block: int) -> list[OpPlan]:
        """Reconstruction of one lost data chunk."""

    def plan_degraded_read(self, stripe: Hashable, block: int) -> list[OpPlan]:
        """Read of a chunk that is currently lost: decode it on the fly.

        Default: the recovery plan without persisting the rebuilt chunk
        (the reader keeps the decoded bytes; the background repair still
        owns writing the replacement).  Counts as a recovery event for
        adaptive schemes — a degraded read *is* a reconstruction.
        """
        return [
            plan if plan.kind is not PlanKind.RECOVERY else self._degraded_twin(plan)
            for plan in self.plan_recovery(stripe, block)
        ]

    def _degraded_twin(self, plan: OpPlan) -> OpPlan:
        """``plan`` keeping the rebuilt chunk instead of writing it: built
        once per interned recovery plan, afresh for any other."""
        twins = self._degraded
        twin = twins.get(id(plan))
        if twin is None:
            twin = OpPlan(
                kind=PlanKind.RECOVERY,
                compute_ops=plan.compute_ops,
                reads=plan.reads,
                distributed=plan.distributed,
            )
            if id(plan) in twins:
                twins[id(plan)] = twin
        return twin

    # -- shared helpers ----------------------------------------------------
    def _write_plan(self, family: CodeFamily) -> OpPlan:
        key = ("write", family)
        plan = self._plans.get(key)
        if plan is None:
            g = self.gamma
            plan = self._plans[key] = OpPlan(
                kind=PlanKind.WRITE,
                compute_ops=family.encode_ops(g),
                writes={s: g for s in range(family.width)},
            )
        return plan

    def _read_one(self, block: int) -> OpPlan:
        plan = self._plans.get(block)
        if plan is None:
            plan = self._plans[block] = OpPlan(kind=PlanKind.READ, reads={block: self.gamma})
        return plan

    def _recovery_plan(self, family: CodeFamily, slot: int) -> OpPlan:
        key = (family, slot)
        plan = self._plans.get(key)
        if plan is None:
            g = self.gamma
            plan = self._plans[key] = OpPlan(
                kind=PlanKind.RECOVERY,
                compute_ops=family.repair_ops(g),
                reads=family.repair_reads(slot, g),
                writes={slot: g},
            )
            self._degraded[id(plan)] = None
        return plan

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.k:
            raise ValueError(f"data block {block} out of range for k={self.k}")


class StaticPlanner(SchemePlanner):
    """Every stripe in one code family, for ever.

    The family descriptor is available as :attr:`family`; its shape
    members (``l``, ``z``, ``virtual_nodes``, ...) are the planner's too.
    """

    def __init__(self, family: CodeFamily, gamma: float):
        super().__init__()
        self.family = family
        self.k, self.r, self.gamma = family.k, family.r, gamma
        self.name = family.label

    def __getattr__(self, attr):
        if attr == "family":  # not constructed yet (copy/unpickle probes)
            raise AttributeError(attr)
        return getattr(self.family, attr)

    @property
    def width(self) -> int:
        return self.family.width

    def storage_overhead(self) -> float:
        return self.family.storage_overhead

    def plan_write(self, stripe: Hashable) -> list[OpPlan]:
        return [self._write_plan(self.family)]

    def plan_read(self, stripe: Hashable, block: int) -> list[OpPlan]:
        self._check_block(block)
        return [self._read_one(block)]

    def plan_recovery(self, stripe: Hashable, block: int) -> list[OpPlan]:
        self._check_block(block)
        return [self._recovery_plan(self.family, block)]


class RSPlanner(StaticPlanner):
    """RS(k, r): cheap writes, expensive repair (reads k whole chunks)."""

    def __init__(self, k: int, r: int, gamma: float):
        super().__init__(RSFamily(k, r), gamma)


class MSRPlanner(StaticPlanner):
    """IH-EC baseline MSR(k+r, k, r, l) — the paper pads with virtual nodes.

    One virtual (all-zero, unstored) data node is added whenever
    ``r ∤ (k + r)``, exactly as the paper does for k = 8, r = 3.
    """

    def __init__(self, k: int, r: int, gamma: float):
        super().__init__(BaselineMSRFamily(k, r), gamma)


class LRCPlanner(StaticPlanner):
    """LRC(k, r, z): local repair for data chunks at higher storage cost."""

    def __init__(self, k: int, r: int, z: int, gamma: float):
        if k % z:
            raise ValueError(f"z={z} must divide k={k}")
        super().__init__(LRCFamily(k, r, z), gamma)


class FRPlanner(StaticPlanner):
    """FR(k, r, ρ): uncoded copy repair at replication-grade storage.

    The family instantiates the real
    :class:`~repro.codes.fr.FractionalRepetitionCode` so recovery reads
    follow the code's actual replica placement — the simulator and the
    codec price repair identically (γ bytes total, spread over the ≤ ρ
    replica holders of the lost chunks, zero GF compute).
    """

    def __init__(self, k: int, r: int, gamma: float, rho: int = 2):
        super().__init__(FRFamily(k, r, rho), gamma)
