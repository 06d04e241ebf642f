"""One table of code-family descriptors — Table III, stated once.

A *family descriptor* is a small frozen value for one stripe layout: its
slots, its tolerance, and what an encode and a single-chunk repair cost in
GF operations, helper reads and the paper's W/R units.  Everything that
prices a code reads these: the planners (:mod:`repro.hybrid`),
:class:`~repro.fusion.costmodel.CostModel`,
:class:`~repro.metrics.costs.AnalyticCosts` and the reliability model.
:data:`FAMILIES` names the four layouts the policy engine selects among;
:func:`conversion` prices moving a stripe between any two of them.

Slots: ``0..k-1`` data chunks, then parity/replica chunks ``k..width-1``.
Float evaluation order is part of the contract — ``compute_ops`` feeds
simulated time through α — so every formula keeps the association it
always had (``tests/test_plan_digest.py`` pins the plans bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

__all__ = [
    "CodeFamily",
    "RSFamily",
    "BaselineMSRFamily",
    "GroupedMSRFamily",
    "LRCFamily",
    "FRFamily",
    "FAMILIES",
    "CONVERSION_EDGES",
    "conversion",
]


@dataclass(frozen=True)
class CodeFamily:
    """What every layout answers; subclasses fill in the per-code parts.

    ``k`` data chunks and ``r``, the family's own redundancy parameter
    (parities for RS/MSR, *global* parities for LRC, extra nodes for FR).
    ``profile`` arguments carry the Table I constants ``alpha``, ``lam``,
    ``phi``, ``gamma`` (:class:`repro.fusion.costmodel.SystemProfile`).

    Derived attributes: ``label`` (name for tables); ``parities`` stored
    beyond the data, ``width`` slots in all; ``tolerance`` (losses always
    survived); ``storage_overhead`` ρ = width/k; ``repair_chunks``
    (chunk-equivalents moved to rebuild a data chunk); ``read_split`` (a
    repair helper ships 1/read_split of its chunk).
    """

    k: int
    r: int

    #: key in :data:`FAMILIES` / :data:`CONVERSION_EDGES`
    name: ClassVar[str]

    def _shape(self, label, parities, repair_chunks, tolerance, read_split=1, **more):
        """Set the derived attributes once (the fields stay frozen)."""
        width = self.k + parities
        vars(self).update(
            label=label,
            parities=parities,
            width=width,
            tolerance=tolerance,
            storage_overhead=width / self.k,
            repair_chunks=repair_chunks,
            read_split=read_split,
            **more,
        )

    @property
    def parity_slots(self) -> range:
        return range(self.k, self.width)

    def encode_ops(self, gamma: float) -> float:
        """GF byte-operations to encode one full stripe of γ-byte chunks."""
        raise NotImplementedError

    def instance_encode_ops(self, gamma: float) -> float:
        """Encode cost of one code instance — Table III's unit.  Only the
        grouped layout holds more than one instance per stripe."""
        return self.encode_ops(gamma)

    def repair_ops(self, gamma: float) -> float:
        """GF byte-operations to rebuild one lost chunk."""
        raise NotImplementedError

    def repair_reads(self, slot: int, gamma: float = 1.0) -> dict[int, float]:
        """Helper slot → bytes read to rebuild ``slot`` (data or parity);
        fractions of γ by default, bytes in the family's own rounding when
        the chunk size is passed."""
        raise NotImplementedError

    def write_cost(self, profile) -> float:
        """W: per-block write cost, γ(ops/α + ρ/λ + 1/φ) for codes whose
        encode is linear in γ."""
        p = profile  # encode_ops(1): operations per chunk byte, an exact integer
        return p.gamma * (
            self.encode_ops(1) / p.alpha + self.storage_overhead / p.lam + 1 / p.phi
        )

    def recovery_cost(self, profile) -> float:
        """R: per-block reconstruction cost, ops/α + γ(chunks/λ + 1/φ)."""
        p = profile
        return self.repair_ops(p.gamma) / p.alpha + p.gamma * (
            self.repair_chunks / p.lam + 1 / p.phi
        )


@dataclass(frozen=True)
class RSFamily(CodeFamily):
    """RS(k, r): cheap writes, expensive repair (reads k whole chunks)."""

    name: ClassVar[str] = "rs"

    def __post_init__(self):
        k, r = self.k, self.r
        self._shape(f"RS({k},{r})", parities=r, repair_chunks=float(k), tolerance=r)

    def encode_ops(self, gamma: float) -> float:
        return gamma * self.k * self.r

    def repair_ops(self, gamma: float) -> float:
        return (self.k + self.r) * self.r**2 + gamma * self.k

    def repair_reads(self, slot: int, gamma: float = 1.0) -> dict[int, float]:
        helpers = [s for s in range(self.width) if s != slot][: self.k]
        return {s: gamma for s in helpers}


@dataclass(frozen=True)
class _MSRLayout(CodeFamily):
    """Shared cost shape of coupled-layer MSR(n, ·) with s = r.

    A stripe is ``copies`` independent code instances of ``n_eff`` nodes
    (``k_eff`` of them data) at sub-packetization ``l = r^(n_eff/r)``;
    optimal repair reads 1/r of every other node of the instance.
    """

    def _msr_shape(self, label, parities, n_eff, k_eff, copies, **more):
        r = self.r
        l = r ** (n_eff // r)
        self._shape(
            label.format(l=l),
            parities,
            repair_chunks=(n_eff - 1) / r,
            tolerance=r,
            read_split=r,
            n_eff=n_eff,
            k_eff=k_eff,
            copies=copies,
            l=l,
            **more,
        )

    def instance_encode_ops(self, gamma: float) -> float:
        return self.l**3 + self.l * gamma * self.k_eff * self.r

    def encode_ops(self, gamma: float) -> float:
        return self.copies * self.instance_encode_ops(gamma)

    def repair_ops(self, gamma: float) -> float:
        return self.l**3 + self.l * gamma * (self.n_eff - 1) / self.r

    def repair_reads(self, slot: int, gamma: float = 1.0) -> dict[int, float]:
        per_helper = gamma / self.r
        return {s: per_helper for s in self._instance_slots(slot) if s != slot}

    def write_cost(self, profile) -> float:
        # the l³ set-up term does not scale with γ, unlike the linear codes'
        p = profile
        return self.encode_ops(p.gamma) / p.alpha + p.gamma * (
            self.storage_overhead / p.lam + 1 / p.phi
        )


@dataclass(frozen=True)
class BaselineMSRFamily(_MSRLayout):
    """IH-EC baseline MSR(k+r, k, r, l) — the paper pads with virtual nodes.

    ``virtual_nodes`` all-zero, unstored data nodes are added whenever
    ``r ∤ (k + r)``, as the paper does for k = 8, r = 3.  Fig. 15 counts
    them among the repair ``helpers`` (``repair_chunks`` = 11/3 at k = 8);
    only the ``stored_helpers`` exist to be read, so :meth:`repair_reads`
    — what the simulator executes — totals 10/3.
    """

    name: ClassVar[str] = "msr-baseline"

    def __post_init__(self):
        k, r = self.k, self.r
        n_eff = -(-(k + r) // r) * r  # pad up to a multiple of r
        self._msr_shape(
            f"MSR({k + r},{k},{r},{{l}})",
            parities=r,
            n_eff=n_eff,
            k_eff=k,
            copies=1,
            virtual_nodes=n_eff - (k + r),  # occupy no slot
            helpers=n_eff - 1,
            stored_helpers=k + r - 1,
        )

    def _instance_slots(self, slot: int) -> range:
        return range(self.width)


@dataclass(frozen=True)
class GroupedMSRFamily(_MSRLayout):
    """q = ⌈k/r⌉ groups of MSR(2r, r, r, r²) — EC-Fusion's repair layout.

    Group i holds data slots ``i·r .. i·r+r-1`` (the last group may be
    padded with virtual chunks past k) and parity slots
    ``k + i·r .. k + i·r + r - 1``; ``copies`` is q.

    :meth:`write_cost` / :meth:`recovery_cost` are the paper's §III-C
    closed forms verbatim (one group, k = r), not the generic forms over
    :meth:`encode_ops` / :meth:`repair_ops`: algebraically equal, but η
    (eq. (1)) must stay bit-identical and the two round differently.
    """

    name: ClassVar[str] = "msr"

    def __post_init__(self):
        r, q = self.r, -(-self.k // self.r)
        self._msr_shape(
            f"MSR({2 * r},{r})x{q}", parities=q * r, n_eff=2 * r, k_eff=r, copies=q
        )

    def _instance_slots(self, slot: int) -> list[int]:
        r, k = self.r, self.k
        group = (slot if slot < k else slot - k) // r
        data = [s for s in range(group * r, (group + 1) * r) if s < k]
        return data + list(range(k + group * r, k + (group + 1) * r))

    def write_cost(self, profile) -> float:
        p, r = profile, self.r
        return r**4 * (r**2 + p.gamma) / p.alpha + p.gamma * (2 / p.lam + 1 / p.phi)

    def recovery_cost(self, profile) -> float:
        p, r = profile, self.r
        return (r**6 + p.gamma * (2 * r**2 - r)) / p.alpha + p.gamma * (
            (2 * r - 1) / (r * p.lam) + 1 / p.phi
        )


@dataclass(frozen=True)
class LRCFamily(CodeFamily):
    """LRC(k, r, z): z local XOR groups + r global parities.

    Slots ``k .. k+z-1`` hold the local parities, the globals follow;
    ``group_size`` is k/z.  The cost formulas accept any (k, z), as the
    analytic figures always have; :meth:`repair_reads` needs ``z | k``.
    """

    z: int = 2
    name: ClassVar[str] = "lrc"

    def __post_init__(self):
        k, r, z = self.k, self.r, self.z
        self._shape(
            f"LRC({k},{r},{z})",
            parities=z + r,
            repair_chunks=k / z,
            tolerance=r + 1,  # any r + 1 losses decode (Azure LRC)
            group_size=k / z,
        )

    def encode_ops(self, gamma: float) -> float:
        # r global RS parities (γkr mults) + z local XORs ((k − z)γ XORs)
        return gamma * (self.k * self.r + (self.k - self.z))

    def repair_ops(self, gamma: float) -> float:
        return gamma * self.group_size

    def repair_reads(self, slot: int, gamma: float = 1.0) -> dict[int, float]:
        k, size = self.k, self.k // self.z
        if slot >= k + self.z:  # a global parity re-encodes from the data
            return {s: gamma for s in range(k)}
        group = slot // size if slot < k else slot - k
        members = [*range(group * size, (group + 1) * size), k + group]
        return {s: gamma for s in members if s != slot}

    def recovery_cost(self, profile) -> float:
        # same quantity as the generic form, factored the way it always was
        p, group = profile, self.group_size
        return p.gamma * (group / p.alpha + group / p.lam + 1 / p.phi)


@dataclass(frozen=True)
class FRFamily(CodeFamily):
    """FR(k, r, ρ): uncoded copy repair at replication-grade storage.

    Repair reads follow the real
    :class:`~repro.codes.fr.FractionalRepetitionCode` placement
    (:attr:`code`, built on first use): γ bytes over the ≤ ρ replica
    holders, zero GF compute.  ``tolerance`` is the ρ − 1 replication
    alone guarantees (the precode usually buys more).
    """

    rho: int = 2
    name: ClassVar[str] = "fr"

    def __post_init__(self):
        k, r, rho = self.k, self.r, self.rho
        self._shape(
            f"FR({k},{r},x{rho})", parities=r, repair_chunks=1.0, tolerance=rho - 1
        )

    @cached_property
    def code(self):
        from .fr import FractionalRepetitionCode

        return FractionalRepetitionCode(self.k, self.r, rho=self.rho)

    def encode_ops(self, gamma: float) -> float:
        # only the θ − B precode chunks cost GF multiplies; replication is free
        coded_chunks = self.width - self.rho * self.k
        return gamma * coded_chunks * self.k

    def repair_ops(self, gamma: float) -> float:
        return 0.0

    def repair_reads(self, slot: int, gamma: float = 1.0) -> dict[int, float]:
        fractions = self.code.repair_read_fractions(slot)
        return {s: frac * gamma for s, frac in fractions.items()}


#: the code families the policy engine selects among, by selector name
FAMILIES: dict[str, type[CodeFamily]] = {
    cls.name: cls for cls in (RSFamily, GroupedMSRFamily, LRCFamily, FRFamily)
}


# -- conversion edges: (reads, writes, compute_ops) of one executed code
# change, mirroring the accounting of repro.fusion.transform ---------------


def _rs_to_msr(rs: RSFamily, msr: GroupedMSRFamily, gamma: float):
    """Intermediary-parity highway (Fig. 12(b)): read the first q−1 data
    groups (never the last) and the r RS parities, write the q·r MSR
    parities; (q−1)·r²·γ for the intermediary parities + q·r²·l·γ (Trans2)."""
    g, r, q, l = gamma, msr.r, msr.copies, msr.l
    reads = {s: g for s in range((q - 1) * r)}
    reads.update({s: g for s in rs.parity_slots})
    writes = {s: g for s in msr.parity_slots}
    return reads, writes, (q - 1) * r * r * g + q * r * r * l * g


def _msr_to_rs(msr: GroupedMSRFamily, rs: RSFamily, gamma: float):
    """Read only the q·r MSR parities, write the r RS ones; q·r²·l·γ (Trans1)."""
    g, r, q, l = gamma, msr.r, msr.copies, msr.l
    reads = {s: g for s in msr.parity_slots}
    writes = {s: g for s in rs.parity_slots}
    return reads, writes, q * r * r * l * g


def _full_reencode(source: CodeFamily, target: CodeFamily, gamma: float):
    """Journalled full re-encode: read the k data chunks, write the target
    family's parities (the old parities are simply retired)."""
    reads = {s: gamma for s in range(target.k)}
    writes = {s: gamma for s in target.parity_slots}
    return reads, writes, target.encode_ops(gamma)


#: registered cheap edges, ``(source name, target name) → pricing function``;
#: every other pair is a :func:`_full_reencode`
CONVERSION_EDGES = {("rs", "msr"): _rs_to_msr, ("msr", "rs"): _msr_to_rs}


def conversion(
    source: CodeFamily, target: CodeFamily, gamma: float
) -> tuple[dict[int, float], dict[int, float], float]:
    """``(reads, writes, compute_ops)`` of converting one stripe.

    >>> rs, msr = RSFamily(8, 3), GroupedMSRFamily(8, 3)
    >>> reads, writes, ops = conversion(rs, msr, 1.0)
    >>> sorted(reads) == [0, 1, 2, 3, 4, 5, 8, 9, 10], len(writes)
    (True, 9)
    >>> reads, writes, ops = conversion(rs, LRCFamily(8, 2, 2), 1.0)
    >>> sorted(reads) == list(range(8)), sorted(writes)
    (True, [8, 9, 10, 11])
    """
    edge = CONVERSION_EDGES.get((source.name, target.name), _full_reencode)
    return edge(source, target, gamma)
