"""Analytic cost metrics — the mathematical-analysis half of the evaluation.

Implements the quantities behind the paper's Figs. 13–15 for the five
contenders, parameterised by ``k`` (r = 3 throughout, matching the 3DFT
setting), the block size γ, and the *hybrid ratio* ``h`` — the fraction of
stripes an EH-EC scheme holds in its second code (MSR for EC-Fusion, the
fast LRC for HACFS).

Scheme identifiers: ``"rs"``, ``"msr"``, ``"lrc"``, ``"hacfs"``,
``"ecfusion"``.  Units: storage is the ratio ρ; computation is GF
multiply/XOR byte-operation counts; transmission is chunk counts.

Every number is a lookup into the code-family descriptors of
:mod:`repro.codes.families`; the two hybrids mix their base and alternate
family by ``h``.  Recovery transmission for the MSR baseline follows the
paper's Fig. 15 convention and counts the virtual padding node among the
helpers (11/3 chunks at k = 8) — see
:class:`~repro.codes.families.BaselineMSRFamily`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..codes.families import (
    BaselineMSRFamily,
    CodeFamily,
    GroupedMSRFamily,
    LRCFamily,
    RSFamily,
)

__all__ = ["SCHEMES", "AnalyticCosts", "CostBreakdown"]

SCHEMES = ("rs", "msr", "lrc", "hacfs", "ecfusion")


@dataclass(frozen=True)
class CostBreakdown:
    """One scheme's analytic costs at a given (k, γ, h)."""

    scheme: str
    storage: float
    app_compute: float
    rec_compute: float
    app_transmission: float
    rec_transmission: float


class AnalyticCosts:
    """Closed-form cost model for the paper's five schemes.

    Parameters
    ----------
    k:
        Data chunks per stripe (the paper evaluates k ∈ {6, 8}).
    r:
        Global fault tolerance (3, the 3DFT configuration).
    gamma:
        Chunk size in bytes (64 KB in the paper's Figs. 14–15).
    """

    def __init__(self, k: int, r: int = 3, gamma: float = 64 * 1024):
        if k <= 0 or r <= 0 or gamma <= 0:
            raise ValueError("k, r and gamma must be positive")
        self.k, self.r, self.gamma = k, r, gamma
        rs, lrc = RSFamily(k, r), LRCFamily(k, 2, 2)
        #: scheme → (base family, alternate family an EH-EC scheme holds a
        #: fraction h of its stripes in).  HACFS's fast code LRC(k, 2, k/2)
        #: is evaluated at a fractional z for odd k, as the closed forms
        #: always were.
        self.members: dict[str, tuple[CodeFamily, CodeFamily | None]] = {
            "rs": (rs, None),
            "msr": (BaselineMSRFamily(k, r), None),
            "lrc": (lrc, None),
            "hacfs": (lrc, LRCFamily(k, 2, k / 2)),
            "ecfusion": (rs, GroupedMSRFamily(k, r)),
        }

    def _at(self, scheme: str, h: float, metric: Callable[[CodeFamily], float]):
        """``metric`` of a scheme's family, mixed by h for the two hybrids."""
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
        if not 0.0 <= h <= 1.0:
            raise ValueError("hybrid ratio h must be in [0, 1]")
        base, alt = self.members[scheme]
        if alt is None:
            return metric(base)
        return (1 - h) * metric(base) + h * metric(alt)

    # -- storage (Fig. 13) ---------------------------------------------------
    def storage(self, scheme: str, h: float = 0.0) -> float:
        """ρ = stored chunks / data chunks at hybrid ratio h."""
        return self._at(scheme, h, lambda f: f.storage_overhead)

    # -- computation (Fig. 14) --------------------------------------------------
    def app_compute(self, scheme: str, h: float = 0.0) -> float:
        """GF operations to encode one full stripe of k chunks."""
        return self._at(scheme, h, lambda f: f.encode_ops(self.gamma))

    def rec_compute(self, scheme: str, h: float = 0.0) -> float:
        """GF operations to reconstruct one chunk."""
        return self._at(scheme, h, lambda f: f.repair_ops(self.gamma))

    # -- transmission (Fig. 15) ----------------------------------------------------
    def app_transmission(self, scheme: str, h: float = 0.0) -> float:
        """Chunks transferred to write one full stripe."""
        return self._at(scheme, h, lambda f: f.width)

    def rec_transmission(self, scheme: str, h: float = 1.0) -> float:
        """Chunks transferred to reconstruct one chunk.

        The paper's Fig. 15(b) assumes EH-EC schemes improve *all* recovery
        requests (h = 1 by default here): recoveries hit the repair-friendly
        code.
        """
        return self._at(scheme, h, lambda f: f.repair_chunks)

    # -- bundle -----------------------------------------------------------------------
    def breakdown(self, scheme: str, h: float = 0.0, rec_h: float = 1.0) -> CostBreakdown:
        """All five metrics for one scheme at application ratio ``h``."""
        return CostBreakdown(
            scheme=scheme,
            storage=self.storage(scheme, h),
            app_compute=self.app_compute(scheme, h),
            rec_compute=self.rec_compute(scheme, rec_h if scheme in ("hacfs", "ecfusion") else h),
            app_transmission=self.app_transmission(scheme, h),
            rec_transmission=self.rec_transmission(scheme, rec_h),
        )
