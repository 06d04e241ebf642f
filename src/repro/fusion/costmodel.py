"""The EC-Fusion cost model: Table III and the switching threshold η.

The per-block write and reconstruction costs of §III-B/C of the paper,

.. math::

   W_{RS}  &= γ(kr/α + ((k+r)/k)/λ + 1/φ) \\
   R_{RS}  &= (nr² + γk)/α + γ(k/λ + 1/φ) \\
   W_{MSR} &= r⁴(r² + γ)/α + γ(2/λ + 1/φ) \\
   R_{MSR} &= (r⁶ + γ(2r² − r))/α + γ((2r−1)/(rλ) + 1/φ)

are stated once, verbatim, in the code-family descriptors of
:mod:`repro.codes.families`; :class:`CostModel` binds one descriptor per
family to a (k, r) configuration and a :class:`SystemProfile` and derives
the decision threshold (eq. (1))

.. math:: η = (R_{RS} − R_{MSR}) / (W_{MSR} − W_{RS}),

with hysteresis band Δ (eq. (2)): switch to RS when δ ≥ η + Δ and to MSR
when δ ≤ η − Δ, where δ = writes/recoveries.

The paper mixes units (the I/O term γ/φ is an operation count added to
seconds); because the same γ/φ term appears in all four formulas it cancels
in both the numerator and denominator of η, so the mixing is harmless for
the decision — we reproduce it literally and expose a
:class:`SystemProfile` carrying the four platform constants of Table I.

The same model prices every family the policy engine selects among — RS,
MSR (the fusion layout MSR(2r, r, r, r²)), Azure-style
LRC(k, lrc_r, lrc_z) and the fractional-repetition code FR(k, ·, ρ) — as
``(W, R, storage-overhead)`` tuples (:class:`CodeCosts`).  Every W/R formula keeps
the same γ/φ disk-I/O term once, so it still cancels in any pairwise
comparison.  :meth:`CostModel.score` blends W and R by the write fraction
``f = δ/(1+δ)`` and adds a storage rent ``storage_weight · ρ_code · γ/λ``
(the dimensionless ``storage_weight`` prices one stored-chunk-transmission
per access); :meth:`CostModel.best_code` applies per-transition hysteresis
margins on top so neighbouring codes don't thrash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from ..codes.families import FAMILIES, CodeFamily

__all__ = [
    "SystemProfile",
    "CostModel",
    "CodeCosts",
    "CODE_FAMILIES",
    "ALWAYS_RS",
    "ALWAYS_MSR",
]

#: The code families the multi-code policy engine can select among.
CODE_FAMILIES = tuple(FAMILIES)

#: Sentinel thresholds for degenerate parameter regimes.
ALWAYS_RS = math.inf
ALWAYS_MSR = 0.0


@dataclass(frozen=True)
class SystemProfile:
    """Platform constants of the paper's Table I / Table VI.

    Attributes
    ----------
    alpha:
        Calculation speed — XOR/GF multiply byte-operations per second.
        Storage-grade codecs (ISA-L style SIMD table lookups on a 3 GHz
        Xeon) sustain on the order of 5e9 such operations per second, which
        keeps RS encoding of 27 MB chunks in the tens of milliseconds the
        paper's testbed exhibits.  The literal is not calibrated (ROADMAP
        item 4(b)): this repo's own kernel, one core of the reference machine,
        RS(6, 3) encode at 1.125 MiB blocks (``r`` = 3 multiply-accumulates
        per data byte), measures 4.7 GB/s of data ≈ 1.4e10 such operations
        per second on the 128-bit rung and 9–10 GB/s ≈ 3e10, memory-bound,
        on the GFNI/AVX-512 rung (``docs/performance.md``).
    lam:
        Network bandwidth in bytes per second (1 Gbps NIC → 125e6).
    phi:
        Bytes obtained by one I/O operation.
    gamma:
        Block (chunk) size in bytes; the paper uses 27 MB HDFS chunks for
        its experiments and 64 KB stripes for the mathematical analysis.
    disk_bandwidth:
        Per-disk streaming bandwidth in bytes/s (3 TB SSD class).
    io_latency:
        Fixed seconds per disk I/O operation.
    net_latency:
        Fixed seconds per network transfer (and per namenode round trip).

    This is the one place a platform constant has a value: the simulated
    cluster's disks, NICs, CPUs and fabric, the reliability model and the
    M/G/1 model all read it from here.
    """

    alpha: float = 5e9
    lam: float = 125e6
    phi: float = 64 * 1024
    gamma: float = 27 * 1024 * 1024
    disk_bandwidth: float = 500e6
    io_latency: float = 100e-6
    net_latency: float = 200e-6

    def __post_init__(self):
        for name in ("alpha", "lam", "phi", "gamma", "disk_bandwidth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("io_latency", "net_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def with_gamma(self, gamma: float) -> "SystemProfile":
        """Same platform, different block size."""
        return replace(self, gamma=gamma)


@dataclass(frozen=True)
class CodeCosts:
    """Per-code (W, R, ρ) cost tuple the multi-code policy scores against.

    ``write`` and ``recovery`` are the per-block costs in the paper's
    Table III units; ``storage_overhead`` is ρ = stored chunks / data
    chunks for the layout the fusion store would actually hold the stripe
    in (MSR therefore counts its padded q·r parity chunks).
    """

    code: str
    write: float
    recovery: float
    storage_overhead: float


@dataclass(frozen=True)
class CostModel:
    """Write/recovery cost formulas for one EC-Fusion(k, r) configuration.

    The trailing fields parameterise the non-paper code families of the
    multi-code policy: the LRC shape (``lrc_r`` global parities, ``lrc_z``
    local groups), the FR shape (``fr_rho`` copies per chunk across
    ``fr_nodes`` total nodes, default 2k+1), and the dimensionless
    ``storage_weight`` rent each stored chunk pays in :meth:`score`.
    """

    k: int
    r: int
    profile: SystemProfile
    lrc_r: int = 2
    lrc_z: int = 2
    fr_rho: int = 2
    fr_nodes: int | None = None
    storage_weight: float = 1.5

    def __post_init__(self):
        if self.k <= 0 or self.r <= 0:
            raise ValueError("k and r must be positive")
        if self.lrc_r <= 0 or self.lrc_z <= 0:
            raise ValueError("lrc_r and lrc_z must be positive")
        if self.fr_rho < 2:
            raise ValueError("fr_rho must be >= 2")
        if self.fr_n < self.fr_rho * self.k:
            raise ValueError(
                f"fr_nodes={self.fr_n} cannot hold {self.fr_rho} copies of "
                f"{self.k} data chunks"
            )
        if self.storage_weight < 0:
            raise ValueError("storage_weight must be non-negative")

    @property
    def fr_n(self) -> int:
        """Total FR node count (default ρ·k+1: ρ copies + one precode chunk)."""
        return self.fr_nodes if self.fr_nodes is not None else self.fr_rho * self.k + 1

    # -- the family table -------------------------------------------------
    @cached_property
    def _families(self) -> dict[str, CodeFamily]:
        shapes = {
            "rs": (self.r,),
            "msr": (self.r,),
            "lrc": (self.lrc_r, self.lrc_z),
            "fr": (self.fr_n - self.k, self.fr_rho),
        }
        return {code: FAMILIES[code](self.k, *shapes[code]) for code in FAMILIES}

    def family(self, code: str) -> CodeFamily:
        """The descriptor this configuration prices ``code`` with (``"msr"``
        is the fusion layout, q groups of MSR(2r, r, r, r²))."""
        try:
            return self._families[code]
        except KeyError:
            raise ValueError(f"unknown code {code!r}") from None

    # -- paper §III-C closed forms ---------------------------------------
    @property
    def write_cost_rs(self) -> float:
        """W_RS: cost of writing one RS(k, r) block."""
        return self.write_cost("rs")

    @property
    def recovery_cost_rs(self) -> float:
        """R_RS: cost of reconstructing one RS(k, r) block."""
        return self.recovery_cost("rs")

    @property
    def write_cost_msr(self) -> float:
        """W_MSR: cost of writing one MSR(2r, r, r, r²) block."""
        return self.write_cost("msr")

    @property
    def recovery_cost_msr(self) -> float:
        """R_MSR: cost of reconstructing one MSR(2r, r, r, r²) block."""
        return self.recovery_cost("msr")

    # -- decision threshold ------------------------------------------------
    @cached_property
    def eta(self) -> float:
        """The switching threshold η of eq. (1) (computed once: the model and
        its profile are frozen, and the selector asks on every decision).

        Degenerate regimes get sentinel values: if MSR writes are not more
        expensive than RS writes there is no write-side reason to prefer RS
        (η = :data:`ALWAYS_MSR`); if MSR recovery is not cheaper, MSR buys
        nothing (η = :data:`ALWAYS_RS`).
        """
        dw = self.write_cost_msr - self.write_cost_rs
        dr = self.recovery_cost_rs - self.recovery_cost_msr
        if dr <= 0:
            return ALWAYS_RS
        if dw <= 0:
            return ALWAYS_MSR
        return dr / dw

    def prefers_rs(self, delta: float, margin: float = 0.0) -> bool:
        """True when δ = writes/recoveries says RS wins (eq. (2), upper band)."""
        if margin < 0:
            raise ValueError("hysteresis margin must be non-negative")
        return delta >= self.eta + margin

    def prefers_msr(self, delta: float, margin: float = 0.0) -> bool:
        """True when δ says MSR wins (eq. (2), lower band)."""
        if margin < 0:
            raise ValueError("hysteresis margin must be non-negative")
        return delta <= self.eta - margin

    # -- per-code cost tuples (multi-code policy engine) -------------------
    def write_cost(self, code: str) -> float:
        """W: per-block write cost of one code family (Table III units).

        The LRC write adds the z local XORs to the RS-style global
        parities; the FR write is almost computation-free (only the θ − B
        precode chunks multiply) but transmits the full replication factor.
        """
        return self.family(code).write_cost(self.profile)

    def recovery_cost(self, code: str) -> float:
        """R: per-block reconstruction cost of one code family.

        LRC repairs from its local group (k/z reads + XOR); FR repair is a
        pure copy — exactly γ bytes over the wire, zero GF operations —
        the cheapest recovery any layout can offer.
        """
        return self.family(code).recovery_cost(self.profile)

    def storage_overhead(self, code: str) -> float:
        """ρ = stored / data chunks in the fusion store's layout.

        MSR counts the padded q·r parity chunks of the MSR(2r, r) group
        layout the transformer produces, not the (k+r)/k of a standalone
        MSR(k+r, k) — the policy prices what the store would actually hold.
        """
        return self.family(code).storage_overhead

    def costs(self, code: str) -> CodeCosts:
        """The full (W, R, ρ) tuple for one code family."""
        return CodeCosts(
            code=code,
            write=self.write_cost(code),
            recovery=self.recovery_cost(code),
            storage_overhead=self.storage_overhead(code),
        )

    # -- multi-code scoring -------------------------------------------------
    def score(self, code: str, delta: float) -> float:
        """Expected per-access cost of holding a stripe in ``code``.

        ``δ = writes/recoveries`` maps to the write fraction
        ``f = δ/(1+δ)`` (δ = ∞ → pure writes, f = 1), so the blend
        ``f·W + (1−f)·R`` is the average cost of the stripe's next access.
        Storage pays rent on top: ``storage_weight · ρ · γ/λ`` — each
        stored chunk priced as ``storage_weight`` chunk transmissions.
        The paper's unit-mixing γ/φ disk-I/O term appears once in every W
        and R, so it cancels out of any comparison; it is subtracted here
        so scores are honest seconds and the *relative* hysteresis margins
        of :meth:`best_code` bite on real cost differences instead of a
        shared constant.
        """
        if delta < 0:
            raise ValueError("delta must be non-negative")
        f = 1.0 if math.isinf(delta) else delta / (1.0 + delta)
        p = self.profile
        rent = self.storage_weight * self.storage_overhead(code) * p.gamma / p.lam
        blend = f * self.write_cost(code) + (1.0 - f) * self.recovery_cost(code)
        return blend - p.gamma / p.phi + rent

    @staticmethod
    def transition_margin(
        margins: float | Mapping[tuple[str, str], float],
        current: str,
        target: str,
    ) -> float:
        """Hysteresis margin for one conversion edge.

        ``margins`` is either one scalar for every edge or a mapping from
        ``(current, target)`` pairs to per-edge fractions; missing edges
        fall back to the mapping's ``"default"`` key (0 if absent).
        """
        if isinstance(margins, Mapping):
            m = margins.get((current, target), margins.get("default", 0.0))
        else:
            m = margins
        if m < 0 or m >= 1:
            raise ValueError(f"margin for {current}->{target} must be in [0, 1)")
        return m

    def best_code(
        self,
        delta: float,
        codes: tuple[str, ...] = CODE_FAMILIES,
        current: str | None = None,
        margins: float | Mapping[tuple[str, str], float] = 0.0,
    ) -> str:
        """The code a stripe with ratio δ should be stored in.

        Without ``current`` this is the plain argmin of :meth:`score`
        (ties break toward the earlier entry of ``codes``).  With
        ``current``, per-transition hysteresis applies: the stripe only
        moves to the winner if the winner's score undercuts the current
        code's by more than the ``(current, winner)`` margin fraction —
        otherwise it stays put, which is what keeps neighbouring codes
        from thrashing a stripe back and forth.

        Examples
        --------
        >>> cm = CostModel(8, 3, SystemProfile())
        >>> cm.best_code(0.5)       # recovery-dominated stripe
        'fr'
        >>> cm.best_code(50.0)      # write-dominated stripe
        'rs'
        >>> cm.best_code(50.0, current="fr", margins=0.99)  # margin holds it
        'fr'
        """
        if not codes:
            raise ValueError("codes must be non-empty")
        scores = {c: self.score(c, delta) for c in codes}
        winner = min(codes, key=lambda c: scores[c])
        if current is None or current not in codes or winner == current:
            return winner
        m = self.transition_margin(margins, current, winner)
        if scores[winner] < scores[current] * (1.0 - m):
            return winner
        return current

    # -- Table III generic application/recovery entries --------------------
    def _table3(self, code: str) -> CodeFamily:
        """Table III tabulates the paper's own pair only."""
        if code not in ("rs", "msr"):
            raise ValueError(f"unknown code {code!r}")
        return self.family(code)

    def application_compute(self, code: str, beta: float) -> float:
        """Table III 'Computational Cost' row for application workloads.

        ``beta`` is the write/read ratio; costs are GF-operation counts
        (for MSR(2r, r) of one group, i.e. k = r).
        """
        frac = beta / (1 + beta)
        return frac * self._table3(code).instance_encode_ops(self.profile.gamma)

    def application_transmission(self, beta: float) -> float:
        """Table III transmission cost (chunks) — identical for RS and MSR."""
        k, r = self.k, self.r
        return (beta * (r + k) / k + 1) / (1 + beta)

    def application_disk_io(self) -> float:
        """Table III disk I/O cost (operations) — identical for RS and MSR."""
        return self.profile.gamma / self.profile.phi

    def recovery_compute(self, code: str) -> float:
        """Table III computational cost for recovering one block."""
        return self._table3(code).repair_ops(self.profile.gamma)

    def recovery_transmission(self, code: str) -> float:
        """Table III transmission cost (chunks) for recovering one block."""
        return self._table3(code).repair_chunks

    def recovery_disk_io(self, code: str) -> tuple[float, float]:
        """Table III disk I/O (min, max) operation counts for recovery."""
        g, phi = self.profile.gamma, self.profile.phi
        return (g / (self._table3(code).read_split * phi), g / phi)
