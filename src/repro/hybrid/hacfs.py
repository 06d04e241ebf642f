"""HACFS baseline (Xia et al., FAST'15) — the EH-EC scheme the paper compares to.

HACFS keeps hot stripes in a *fast* code and cold stripes in a *compact*
code from the same family.  Following the paper's evaluation setup
("HACFS-k is a combination of LRC(k, 2, 2) and LRC(k, 2, k/2)"):

* fast    = LRC(k, 2, k/2): groups of two → a data chunk repairs from just
  2 reads;
* compact = LRC(k, 2, 2): cheaper storage, repairs read k/2 chunks.

Because the fast code's groups refine the compact code's, downcoding
(fast → compact) only touches parities: each compact local parity is the
XOR of the fast local parities covering its half.  Upcoding
(compact → fast) must re-read the data to build the finer parities.

Hotness is tracked with the same bounded queue machinery EC-Fusion uses;
a stripe falls back to the compact code when it falls off the queue.
"""

from __future__ import annotations

from typing import Hashable

from ..codes.families import LRCFamily
from ..fusion.queues import CachePolicy, TrackingQueue
from .planners import SchemePlanner
from .plans import OpPlan, PlanKind

__all__ = ["HACFSPlanner"]


class HACFSPlanner(SchemePlanner):
    """Two-LRC adaptive scheme: fast for hot stripes, compact for cold.

    Parameters
    ----------
    k:
        Data chunks per stripe (must be even: the fast code uses pairs).
    gamma:
        Chunk size in bytes.
    hot_capacity:
        How many stripes may be hot simultaneously (queue capacity).
    upcode_threshold:
        Accesses (while tracked) before a compact stripe is upcoded to the
        fast code — prevents one stray read of cold data from paying a
        k-chunk conversion.
    """

    def __init__(
        self,
        k: int,
        gamma: float,
        hot_capacity: int = 256,
        policy: CachePolicy = CachePolicy.LRU,
        upcode_threshold: int = 3,
    ):
        if k % 2:
            raise ValueError("HACFS fast code LRC(k,2,k/2) needs even k")
        super().__init__()
        self.k, self.gamma = k, gamma
        self.r = 2
        self.fast = LRCFamily(k, 2, k // 2)
        self.compact = LRCFamily(k, 2, 2)
        self.name = f"HACFS-{k}"
        self._hot = TrackingQueue(hot_capacity, policy)
        self.upcode_threshold = upcode_threshold
        self._is_fast: dict[Hashable, bool] = {}
        self._seen: set[Hashable] = set()
        self.conversion_count = 0

    @property
    def width(self) -> int:
        return self.fast.width  # fast shape is the larger footprint

    def code_of(self, stripe: Hashable) -> str:
        """"fast" or "compact"."""
        return "fast" if self._is_fast.get(stripe, False) else "compact"

    def storage_overhead(self) -> float:
        total = len(self._seen)
        if not total:
            return self.compact.storage_overhead
        fast_count = sum(1 for s in self._seen if self._is_fast.get(s, False))
        h = fast_count / total
        return h * self.fast.storage_overhead + (1 - h) * self.compact.storage_overhead

    # -- adaptation -----------------------------------------------------------
    def _touch(self, stripe: Hashable, charge_upcode: bool = True) -> list[OpPlan]:
        """Record an access; emit up/downcode conversions as needed.

        ``charge_upcode=False`` marks the stripe fast without paying the
        conversion — used when a fresh write is about to encode the stripe
        in the fast code anyway.
        """
        plans: list[OpPlan] = []
        evicted = self._hot.record(stripe)
        for entry in evicted:
            if self._is_fast.get(entry.key, False):
                plans.append(self._downcode(entry.key))
        if not self._is_fast.get(stripe, False):
            if not charge_upcode or stripe not in self._seen:
                self._is_fast[stripe] = True  # fresh write lands fast for free
            elif self._hot.hits(stripe) >= self.upcode_threshold:
                plans.append(self._upcode(stripe))
        return plans

    def _upcode(self, stripe: Hashable) -> OpPlan:
        """compact → fast: re-read data, write the k/2 fine local parities."""
        self._is_fast[stripe] = True
        self.conversion_count += 1
        plan = self._plans.get("upcode")
        if plan is None:
            g = self.gamma
            plan = self._plans["upcode"] = OpPlan(
                kind=PlanKind.CONVERSION,
                compute_ops=g * (self.k - self.k // 2),  # k/2 pairwise XORs
                reads={s: g for s in range(self.k)},
                writes={self.k + i: g for i in range(self.k // 2)},
                distributed=True,
            )
        return plan

    def _downcode(self, stripe: Hashable) -> OpPlan:
        """fast → compact: XOR the fine parities into the 2 coarse ones."""
        self._is_fast[stripe] = False
        self.conversion_count += 1
        plan = self._plans.get("downcode")
        if plan is None:
            g = self.gamma
            plan = self._plans["downcode"] = OpPlan(
                kind=PlanKind.CONVERSION,
                compute_ops=g * (self.k // 2 - 2),
                reads={self.k + i: g for i in range(self.k // 2)},
                writes={self.k + i: g for i in range(2)},
                distributed=True,
            )
        return plan

    # -- operations --------------------------------------------------------------
    def plan_write(self, stripe: Hashable) -> list[OpPlan]:
        # A write replaces the stripe's contents, so the stripe lands in the
        # fast code directly — no upcode conversion is charged for it.
        conv = self._touch(stripe, charge_upcode=False)
        self._seen.add(stripe)
        current = self.fast if self._is_fast[stripe] else self.compact
        return conv + [self._write_plan(current)]

    def plan_read(self, stripe: Hashable, block: int) -> list[OpPlan]:
        self._check_block(block)
        self._seen.add(stripe)  # a stripe being read physically exists
        conv = self._touch(stripe)
        return conv + [self._read_one(block)]

    def plan_recovery(self, stripe: Hashable, block: int) -> list[OpPlan]:
        self._check_block(block)
        current = self.fast if self._is_fast.get(stripe, False) else self.compact
        return [self._recovery_plan(current, block)]
