"""Reliability analysis: MTTDL of each scheme from its repair speed.

The paper's motivation is that faster reconstruction shrinks the window in
which additional failures can exceed the code's fault tolerance.  This
module quantifies that with the standard Markov-chain mean-time-to-data-
loss model:

* states 0..t count concurrently failed chunks of one stripe (t = fault
  tolerance); state t+1 (one more failure) is absorbing data loss;
* chunk failures arrive at rate (n − i)·λ_f from state i (λ_f = 1/MTTF of
  one chunk's disk);
* repairs complete at rate μ = 1/T_repair, with T_repair derived from the
  *scheme's own* recovery transmission/compute costs — the same
  :class:`~repro.metrics.costs.AnalyticCosts` quantities Figs. 14–15 use —
  so repair-efficient codes (MSR, LRC locality) earn their reliability.

MTTDL is the expected absorption time from state 0, obtained by solving
the linear first-passage system on the transient states.

For EC-Fusion the stripe population is a mixture: a fraction ``h`` of
stripes sits in MSR(2r, r) (fast repair) and the rest in RS(k, r); the
mixture's data-loss *rate* is the weighted sum of the per-population
rates, hence a harmonic MTTDL combination.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fusion.costmodel import SystemProfile
from .costs import AnalyticCosts

__all__ = ["ReliabilityModel", "SchemeReliability", "mttdl_markov"]

HOURS_PER_YEAR = 24 * 365.25


def mttdl_markov(n: int, tolerance: int, failure_rate: float, repair_rate: float) -> float:
    """MTTDL (hours) of an (n, tolerance) stripe via first-passage analysis.

    Parameters
    ----------
    n:
        Chunks in the stripe (each on its own disk).
    tolerance:
        Maximum concurrent chunk losses survived.
    failure_rate:
        λ_f, per-chunk failures per hour.
    repair_rate:
        μ, repairs per hour (one repair in flight at a time — the
        conservative classic model).
    """
    if n <= 0 or tolerance < 0 or tolerance >= n:
        raise ValueError("need n > 0 and 0 <= tolerance < n")
    if failure_rate <= 0 or repair_rate <= 0:
        raise ValueError("rates must be positive")
    # Birth–death chain closed form (numerically stable where a linear
    # solve is hopeless at repair/failure rate ratios of ~1e10):
    #   E[T_absorb from 0] = Σ_{i=0}^{t} Σ_{j=0}^{i} (1/λ_j) Π_{m=j+1}^{i} μ_m/λ_m
    # with birth (failure) rates λ_i = (n−i)·λ_f and death (repair) rates
    # μ_i = μ for i ≥ 1.
    birth = [(n - i) * failure_rate for i in range(tolerance + 1)]
    total = 0.0
    for i in range(tolerance + 1):
        term = 0.0
        for j in range(i, -1, -1):
            prod = 1.0 / birth[j]
            for m in range(j + 1, i + 1):
                prod *= repair_rate / birth[m]
            term += prod
        total += term
    return total


@dataclass(frozen=True)
class SchemeReliability:
    """One scheme's reliability summary."""

    scheme: str
    repair_hours: float
    mttdl_hours: float

    @property
    def mttdl_years(self) -> float:
        return self.mttdl_hours / HOURS_PER_YEAR


class ReliabilityModel:
    """MTTDL comparison across the paper's five schemes.

    Parameters
    ----------
    k, r:
        Stripe shape (r = 3, the 3DFT setting).
    profile:
        Platform constants; repair time = transmission·γ/λ + compute/α +
        disk read γ/disk_bandwidth.
    disk_mttf_hours:
        Per-disk mean time to failure (default ~1.4 M hours ≈ an AFR of
        0.6 %, a typical enterprise figure).
    """

    def __init__(
        self,
        k: int,
        r: int = 3,
        profile: SystemProfile | None = None,
        disk_mttf_hours: float = 1.4e6,
    ):
        if disk_mttf_hours <= 0:
            raise ValueError("disk_mttf_hours must be positive")
        self.k, self.r = k, r
        self.profile = profile or SystemProfile()
        self.costs = AnalyticCosts(k=k, r=r, gamma=self.profile.gamma)
        self.failure_rate = 1.0 / disk_mttf_hours

    # -- repair times ------------------------------------------------------
    def repair_hours(self, scheme: str, h: float = 1.0) -> float:
        """Wall-clock hours to reconstruct one chunk under a scheme."""
        p = self.profile
        transfer = self.costs.rec_transmission(scheme, h) * p.gamma / p.lam
        compute = self.costs.rec_compute(scheme, h) / p.alpha
        disk = p.gamma / p.disk_bandwidth
        return (transfer + compute + disk) / 3600.0

    def _stripe_width(self, scheme: str) -> tuple[int, int]:
        """(chunks per failure domain, tolerance) for the Markov chain.

        For the two hybrids this is the base family's shape (LRC(k,2,2)
        for HACFS, RS for EC-Fusion — MSR groups are handled in mttdl()).
        """
        if scheme not in self.costs.members:
            raise ValueError(f"unknown scheme {scheme!r}")
        base, _ = self.costs.members[scheme]
        return base.width, base.tolerance

    # -- MTTDL ----------------------------------------------------------------
    def mttdl(self, scheme: str, h: float = 1 / 6) -> SchemeReliability:
        """MTTDL for a scheme; ``h`` is EC-Fusion's MSR-resident fraction."""
        if scheme == "ecfusion":
            # mixture: (1-h) RS(k,r) stripes + h stripes split into q
            # MSR(2r, r) groups, each its own 2r-chunk failure domain with
            # tolerance r and fast repair.
            rs, msr = self.costs.members["ecfusion"]
            rs_part = mttdl_markov(
                rs.width, rs.tolerance, self.failure_rate, 1.0 / self.repair_hours("rs")
            )
            msr_part = (
                mttdl_markov(
                    msr.n_eff,
                    msr.tolerance,
                    self.failure_rate,
                    1.0 / self.repair_hours("ecfusion", 1.0),
                )
                / msr.copies  # q independent groups per stripe
            )
            loss_rate = (1 - h) / rs_part + h / msr_part
            mttdl_hours = 1.0 / loss_rate
            repair = (1 - h) * self.repair_hours("rs") + h * self.repair_hours(
                "ecfusion", 1.0
            )
            return SchemeReliability("ecfusion", repair, mttdl_hours)
        n, tolerance = self._stripe_width(scheme)
        repair = self.repair_hours(scheme)
        value = mttdl_markov(n, tolerance, self.failure_rate, 1.0 / repair)
        return SchemeReliability(scheme, repair, value)

    def compare(self, h: float = 1 / 6) -> list[SchemeReliability]:
        """All five schemes, most reliable last."""
        out = [self.mttdl(s, h) for s in ("rs", "msr", "lrc", "hacfs", "ecfusion")]
        return sorted(out, key=lambda sr: sr.mttdl_hours)
