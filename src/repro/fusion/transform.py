"""The one converter: every edge of the RS/MSR/LRC/FR code-family graph,
with RS(k, r) ↔ MSR(2r, r, r, r²) on the §III-D highway.

:meth:`FusionTransformer.convert` moves a :class:`StripeStore` between any
two families of :data:`repro.codes.families.FAMILIES`.  Its edge table is
keyed like :data:`~repro.codes.families.CONVERSION_EDGES`: the two
registered cheap edges, RS → MSR and MSR → RS, run the intermediary-parity
highway below; every other pair is a *full re-encode* — read the k data
chunks, encode the target family's parity with that family's own codec.

The trick (paper eqs. (3)–(7)): slice the RS parity-coefficient matrix
``P`` (r×k) column-wise into q = ⌈k/r⌉ invertible r×r blocks ``B_i``.
The *intermediary parities* ``p′_i = B_i · d_i`` satisfy

* ``p = p′_1 ⊕ … ⊕ p′_q``  (eq. (3)) — they XOR into the RS parities, and
* ``d_i = B_i⁻¹ · p′_i``    (eq. (4)) — each set alone determines its data
  group,

so they act as a "highway" between the two codes:

* **RS → MSR** (Fig. 12(b)): compute ``p′_i`` for the first q−1 groups
  from their data, then obtain the *last* group's intermediary parity for
  free as ``p′_q = p ⊕ Σ_{i<q} p′_i`` — group q's data is never read.
  Each ``p′_i`` maps to the MSR parities of its group through
  ``Trans2 = Enc_MSR · (B_i⁻¹ ⊗ I_l)`` (eq. (7)).
* **MSR → RS** (Fig. 12(a)): because MSR(2r, r) has k = r, its parity
  blocks alone determine the group data, so
  ``Trans1 = (B_i ⊗ I_l) · Enc_MSR⁻¹`` (eq. (6)) turns each group's MSR
  parities into ``p′_i`` *without touching any data blocks*; XOR-merging
  yields the RS parities.

When r ∤ k the paper pads with virtual empty (all-zero) data nodes; we do
the same by building the ``B_i`` from the width-qr Cauchy extension of the
same parity family, whose first k columns coincide with RS(k, r)'s.  The
virtual nodes are never materialised: a zero block contributes nothing,
so the last group's matrices simply drop its columns.

Each conversion is one kernel call per two groups, each a chained
program of the MSR code's coupled-layer factors (uncouple, one scalar MDS
map per plane, recouple; :class:`~repro.gf.CodingPlan` ``factors``).
Because ``Trans2_i · (B_i ⊗ I_l) = Enc_MSR``, RS → MSR encodes a group it
reads from its data, and rebuilds the derived group's data inside the
same call as ``B_q⁻¹·(p ⊕ Σ_{i<q} B_i·d_i)`` (eqs. (3), (4)) before
encoding it — the chain's product is ``Trans2_q`` over eq. (3), which the
plan checks, and the blocks read are the same.  MSR → RS runs two groups'
Trans1 maps per call, side by side, so eq. (3)'s merge happens inside the
kernel.

Both conversions are destination-passing: they read the caller's data and
parity arrays in place, write only freshly allocated ``(r, L)`` parity
sets (the kernel applies straight into them, both of a call's groups at
once), and hand those back — no data block is copied, and nothing the
caller owns is touched, so the caller swaps parities in on success.

A full re-encode reads around a data group the fault hook reports lost by
decoding it with the *source* family's codec from the rest of its code
instance — the whole stripe for RS/LRC/FR, the group's own MSR(2r, r)
codeword for MSR (the any-code repair view of arXiv:1101.0133; FR's
uncoded replicas, arXiv:1509.03800, are one more decodable instance).
Every conversion is journalled; a loss beyond what the source can decode
raises :class:`TransformAborted` with the stripe untouched and the entry
closed as an abort, so a stripe is never left half-converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from ..codes import MSRCode, ReedSolomonCode, UnrecoverableError
from ..gf import CodingPlan, as_symbols, cauchy, inverse, matmul
from ..gf.matrix import block_diag
from ..gf.native import STREAM_BYTES, aligned_empty
from ..telemetry import METRICS
from .adaptation import CodeKind
from .costmodel import CostModel, SystemProfile

__all__ = [
    "ChunkUnavailable",
    "TransformAborted",
    "TransformCost",
    "RsToMsrResult",
    "MsrToRsResult",
    "StripeStore",
    "FusionTransformer",
]


_shape = attrgetter("shape")

#: the symbol dtype; an array that is an ``ndarray`` of it and C-contiguous
#: is what :func:`~repro.gf.as_symbols` returns unchanged, so callers test
#: for it inline and skip the call (a stored stripe's own arrays always are)
_SYMBOL = np.dtype(np.uint8)


def _block_len_error(L: int, l: int) -> ValueError:
    return ValueError(f"block length {L} not a multiple of MSR sub-packetization {l}")


class _Interned(dict):
    """A dict that builds a missing value once, as ``build(key)``: a hit is a
    plain lookup."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class ChunkUnavailable(RuntimeError):
    """Raised by a conversion fault hook: this source chunk cannot be read.

    ``phase`` is ``"parity"`` (the stripe's parity set) or ``"data"`` (one
    data group); ``group`` is the group index (−1 for the one parity set of
    an RS, LRC or FR stripe).
    """

    def __init__(self, phase: str, group: int):
        super().__init__(f"{phase} chunks of group {group} unavailable")
        self.phase = phase
        self.group = group


class TransformAborted(RuntimeError):
    """A conversion could not complete under the injected faults.

    The transform rolls back cleanly: no partial output is produced and
    the caller's input arrays are never mutated, so the stripe simply
    remains in its original code (the conversion-safety invariant).
    """


@dataclass
class TransformCost:
    """Accounting for one conversion — what the cluster simulator charges.

    ``data_blocks_read``/``parity_blocks_read`` count whole-block reads;
    ``gf_ops`` estimates GF multiply-accumulate operations on block bytes;
    ``blocks_written`` counts new parity blocks that must be stored.

    An RS ↔ MSR highway returns a read-only constant per (edge, block
    length, reads), the same object for every conversion of that shape:
    accumulate costs into one of your own (``total += cost``).
    """

    data_blocks_read: int = 0
    parity_blocks_read: int = 0
    blocks_written: int = 0
    gf_ops: float = 0.0

    @property
    def blocks_read(self) -> int:
        return self.data_blocks_read + self.parity_blocks_read

    def __iadd__(self, other: TransformCost) -> TransformCost:
        self.data_blocks_read += other.data_blocks_read
        self.parity_blocks_read += other.parity_blocks_read
        self.blocks_written += other.blocks_written
        self.gf_ops += other.gf_ops
        return self


class _SharedCost(TransformCost):
    """A highway cost constant, shared by every conversion of its shape:
    setting a field — ``+=`` on it included — raises instead of changing
    what the next conversion reports."""

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a shared highway cost is read-only (setting {name})")


@dataclass
class RsToMsrResult:
    """Output of an RS→MSR conversion: the new MSR parities of every group.

    ``parity`` holds q freshly allocated ``(r, L)`` arrays, group ``i``'s
    MSR parities at index ``i`` (the shape :meth:`FusionTransformer.msr_to_rs`
    takes back); ``data`` is the caller's own ``(k, L)`` array — a
    conversion computes parities alone and never copies a data block.
    """

    data: np.ndarray
    parity: list[np.ndarray]
    cost: TransformCost = field(default_factory=TransformCost)

    @property
    def groups(self) -> list[np.ndarray]:
        """The q MSR(2r, r) codewords as ``(2r, L)`` arrays (copies).

        Built on demand — each group's data plus parity, the last group
        zero-padded when r ∤ k — for callers that want whole codewords;
        the store itself keeps ``data`` and ``parity`` apart.
        """
        out = []
        for i, par in enumerate(self.parity):
            r, L = par.shape
            grp = np.zeros((2 * r, L), dtype=par.dtype)
            real = self.data[i * r : (i + 1) * r]
            grp[: len(real)] = real
            grp[r:] = par
            out.append(grp)
        return out


@dataclass
class MsrToRsResult:
    """Output of an MSR→RS conversion: the merged RS parity blocks."""

    parity: np.ndarray  # (r, L)
    cost: TransformCost = field(default_factory=TransformCost)


@dataclass
class StripeStore:
    """Physical representation of one stripe: data once, parity per code.

    ``data`` is the ``(k, L)`` systematic block set in every family; no
    conversion reallocates or copies it.  ``parity`` is the current code's
    redundancy, one array per code instance: the single parity set of an
    RS, LRC or FR stripe (the codec's nodes ``k..n-1`` in order), or one
    ``(r, L)`` MSR parity set per group — group ``i`` covers data rows
    ``i·r..(i+1)·r``, fewer for a padded last group, whose virtual zero
    blocks are not stored.  A conversion replaces ``kind`` and ``parity``
    together, once the new parity sets are complete.
    """

    kind: CodeKind
    data: np.ndarray
    parity: list[np.ndarray]

    @property
    def parity_blocks(self) -> int:
        """Parity blocks stored: r in RS, q·r in MSR."""
        return sum(len(p) for p in self.parity)


class FusionTransformer:
    """The converter of an EC-Fusion(k, r) store, with precomputed
    Trans1/Trans2 maps for its RS ↔ MSR highway.

    Parameters
    ----------
    k, r:
        The RS(k, r) shape.  The MSR side is always MSR(2r, r, r, r²); LRC
        and FR take the shapes their :attr:`cost_model` descriptors price.

    Examples
    --------
    >>> import numpy as np
    >>> tr = FusionTransformer(k=4, r=2)
    >>> data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
    >>> coded = tr.rs.encode(data)
    >>> out = tr.rs_to_msr(data, coded[4:])
    >>> back = tr.msr_to_rs([g[2:] for g in out.groups])
    >>> bool(np.array_equal(back.parity, coded[4:]))
    True
    >>> stripe = tr.encode(data, "rs")
    >>> tr.convert(stripe, "fr").blocks_written, stripe.kind.value
    (5, 'fr')
    >>> cost = tr.convert(stripe, "rs")
    >>> bool(np.array_equal(stripe.parity[0], coded[4:])), tr.journal_committed
    (True, 2)
    """

    def __init__(self, k: int, r: int):
        self.k = k
        self.r = r
        self.q = -(-k // r)  # ceil
        self.padding = self.q * r - k
        self.rs = ReedSolomonCode(k, r)
        self.msr = msr = MSRCode(2 * r, r)
        #: block lengths must be a multiple of this (the MSR l = r²)
        self.subpacketization = l = msr.subpacketization

        # Group blocks B_i from the width-qr extension of the Cauchy family;
        # its first k columns are exactly the RS(k, r) parity matrix.
        p_full = cauchy(r, self.q * r)
        assert np.array_equal(p_full[:, :k], self.rs.parity_matrix)
        self.group_blocks = [p_full[:, i * r : (i + 1) * r] for i in range(self.q)]
        self._group_blocks_inv = [inverse(b) for b in self.group_blocks]

        enc = msr.generator[msr.k * l :]  # (r·l × r·l), square since k = r
        enc_inv = inverse(enc)
        eye_l = np.eye(l, dtype=np.uint8)
        #: Trans1_i: group-i MSR parity symbols -> intermediary parity symbols
        self.trans1 = [matmul(np.kron(b, eye_l), enc_inv) for b in self.group_blocks]
        #: Trans2_i: intermediary parity symbols -> group-i MSR parity symbols
        self.trans2 = [
            matmul(enc, np.kron(binv, eye_l)) for binv in self._group_blocks_inv
        ]
        # Conversions re-apply the same matrices stripe after stripe —
        # compile each once so the hot path is pure fused-kernel execution.
        # A padded last group multiplies its real data rows only: the
        # virtual zero blocks' columns of B_q drop out, nothing is padded.
        self._group_plans = [
            CodingPlan(b[:, : k - i * r]) for i, b in enumerate(self.group_blocks)
        ]
        self._codecs = {"rs": self.rs, "msr": msr}
        self._routes = _Interned(self._route)
        self._highway_costs = _Interned(self._price)
        self._derivations = _Interned(self._derivation)
        self._merges = _Interned(self._merge)
        self._read_groups = range(self.q - 1)  # what a fault-free RS → MSR reads
        #: the conversion journal: :meth:`convert` calls begun and not yet
        #: closed (0 at rest), committed, and aborted
        self.journal_open = self.journal_committed = self.journal_aborted = 0

    # ------------------------------------------------------------------ helpers
    def _price(self, key: tuple) -> TransformCost:
        """What one highway conversion costs, keyed ``(edge, L, data groups
        read, parity sets read)``: it applies a Trans2 per group (RS → MSR)
        or a Trans1 per parity set read (MSR → RS).  Priced once per key in
        :attr:`_highway_costs`; every conversion of that shape returns the
        same read-only object."""
        edge, L, data_groups, parity_sets = key
        r = self.r
        # every Trans1/Trans2 is a dense (r·l × r·l) map over L/l columns
        if edge == "rs_to_msr":
            maps, written = self.q, self.q * r
        else:
            maps, written = parity_sets, r
        return _SharedCost(
            data_blocks_read=data_groups * r,
            parity_blocks_read=parity_sets * r,
            blocks_written=written,
            gf_ops=data_groups * r * r * L
            + maps * self.trans1[0].size * (L / self.subpacketization),
        )

    def _derivation(self, derived: int | None) -> list[tuple[CodingPlan, int, int | None]]:
        """The RS → MSR conversion when group ``derived`` is not read (None:
        every group is), as applications of two groups each over the data
        symbols with the RS parity's as their tail: ``(plan, group, next
        group or None)``, the first group's MSR parity its ``out``, the
        next's its ``out_tail``.

        A group read from its data is MSR-encoded (``Enc_MSR`` over its
        real rows).  The derived group's data is rebuilt first, as
        ``B_d⁻¹·(p ⊕ Σ_{i≠d} B_i·d_i)`` (eqs. (3), (4)), and then encoded:
        its rows of the matrix are ``Trans2_d`` over eq. (3)'s map (eq.
        (7)), which the plan checks the chain against.  Both groups' steps
        run as one chain — the rebuild (or the pick of the group's rows),
        then the MSR code's coupled-layer factors side by side.  Interned
        per derived group in :attr:`_derivations`."""
        k, r, l = self.k, self.r, self.subpacketization
        eye_l = np.eye(l, dtype=np.uint8)
        enc = self.msr.generator[r * l :]
        firsts, dense = [], []
        for g, rows in enumerate(self._instances("msr")):
            if g == derived:
                m = np.concatenate([self.rs.parity_matrix, np.eye(r, dtype=np.uint8)], axis=1)
                m[:, rows.start : rows.stop] = 0  # group g is unread
                firsts.append(np.kron(matmul(self._group_blocks_inv[g], m), eye_l))
                dense.append(matmul(self.trans2[g], np.kron(m, eye_l)))
                continue
            cols = slice(rows.start * l, rows.stop * l)
            first = np.zeros((r * l, (k + r) * l), dtype=np.uint8)
            first[: len(rows) * l, cols] = np.eye(len(rows) * l, dtype=np.uint8)
            firsts.append(first)
            dense.append(np.zeros_like(first))
            dense[-1][:, cols] = enc[:, : len(rows) * l]
        chain = self.msr._parity_factors(r)
        calls = []
        for g in range(0, self.q, 2):
            pair = slice(g, g + 2)
            factors = [np.concatenate(firsts[pair])]
            factors += [block_diag(*[f] * len(firsts[pair])) for f in chain]
            plan = CodingPlan(np.concatenate(dense[pair]), factors)
            calls.append((plan, g, g + 1 if g + 1 < self.q else None))
        return calls

    def _merge(self, from_data: tuple[int, ...]) -> list[tuple[CodingPlan, int, int | None]]:
        """The MSR → RS merge (eqs. (3), (6)) when the groups ``from_data``
        are read from their data (B_i ⊗ I_l, the failover) and the others
        from their MSR parities (Trans1_i), as applications of two groups
        each: ``(plan, group, next group or None)``, both groups' inputs in
        one call through ``tail``.  Trans1_i runs as the chain of the MSR
        code's inverse encoder (uncouple the parity, invert the scalar MDS
        map per plane, recouple the data) and then B_i ⊗ I_l; the last
        step of both groups sums into the one output.  Interned per
        ``from_data`` in :attr:`_merges`."""
        l = self.subpacketization
        eye_l = np.eye(l, dtype=np.uint8)
        decode = self.msr.data_from_parity_factors()
        chains, maps = [], []
        for i, rows in enumerate(self._instances("msr")):
            if i in from_data:
                b = np.kron(self.group_blocks[i][:, : len(rows)], eye_l)
                chains.append([np.eye(len(rows) * l, dtype=np.uint8)] * len(decode) + [b])
                maps.append(b)
            else:
                chains.append(decode + [np.kron(self.group_blocks[i], eye_l)])
                maps.append(self.trans1[i])
        calls = []
        for i in range(0, self.q, 2):
            pair = chains[i : i + 2]
            factors = [block_diag(*stage) for stage in zip(*pair)]
            factors[-1] = np.concatenate([c[-1] for c in pair], axis=1)
            plan = CodingPlan(np.concatenate(maps[i : i + 2], axis=1), factors)
            calls.append((plan, i, i + 1 if i + 1 < self.q else None))
        return calls

    # ---------------------------------------------------------------- eq. (3)
    def intermediary_parities(self, data: np.ndarray) -> np.ndarray:
        """All q intermediary parity sets p′_i, shape (q, r, L)."""
        data = as_symbols(data, "data")
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(f"expected ({self.k}, L) data blocks, got {data.shape}")
        r = self.r
        out = np.empty((self.q, r, data.shape[1]), dtype=np.uint8)
        for i, plan in enumerate(self._group_plans):
            plan.apply_into(data[i * r : (i + 1) * r], out[i])
        return out

    # ------------------------------------------------------------- conversions
    def rs_to_msr(
        self, data: np.ndarray, rs_parity: np.ndarray, fault_hook=None
    ) -> RsToMsrResult:
        """Convert one RS stripe into q MSR(2r, r) stripes (Fig. 12(b)).

        Reads the first q−1 data groups and the r RS parities.  A group
        read from its data gets its MSR parities from the MSR encoder
        (``Trans2_i·(B_i ⊗ I_l) = Enc_MSR``); the last group's data is
        rebuilt from eq. (3)'s intermediary parity without reading it, and
        encoded in the same kernel call (Trans2, eq. (7)).  ``data`` must
        be the ``(k, L)`` stripe.  The result carries the q new ``(r, L)``
        parity sets and ``data`` itself — whole ``(2r, L)`` group
        codewords only on request (:attr:`RsToMsrResult.groups`).

        ``fault_hook(phase, group)`` is called before each source read
        (``("parity", -1)`` for the RS parity set, ``("data", i)`` for
        group i) and may raise :class:`ChunkUnavailable` to simulate a
        mid-conversion source loss.  The transform then fails over:

        * one data group unreadable, parity readable → read the normally
          skipped last group instead and derive the missing group's
          intermediary parity from eq. (3) — byte-identical output;
        * parity unreadable → read *all* q data groups and compute every
          p′_i directly — byte-identical output;
        * anything worse → :class:`TransformAborted`, inputs untouched.
        """
        if METRICS.enabled:
            with METRICS.timer("fusion.transform.wall.rs_to_msr", unit="s"):
                return self._rs_to_msr(data, rs_parity, fault_hook)
        return self._rs_to_msr(data, rs_parity, fault_hook)

    def _read_source(self, fault_hook, phase: str, group: int) -> bool:
        """Probe one conversion source; False when the hook reports it lost."""
        if fault_hook is None:
            return True
        try:
            fault_hook(phase, group)
        except ChunkUnavailable:
            return False
        return True

    def _rs_sources(self, fault_hook) -> tuple[range | list[int], int | None]:
        """Probe an RS stripe's sources → ``(data groups to read, the group
        whose p′ eq. (3) derives from the parities, or None)``."""
        parity_ok = self._read_source(fault_hook, "parity", -1)
        # Which data groups must be read: normally all but the last (its p′
        # is derived from the parities); without the parities, all of them.
        needed = list(range(self.q - 1)) if parity_ok else list(range(self.q))
        derived = self.q - 1 if parity_ok else None
        missing = [i for i in needed if not self._read_source(fault_hook, "data", i)]
        if missing and parity_ok and derived is not None:
            # Failover: swap ONE lost group with the normally skipped last
            # group — eq. (3) recovers the lost group's p′ from the parities.
            if self._read_source(fault_hook, "data", derived):
                needed = [i for i in range(self.q) if i != missing[0]]
                derived = missing[0]
                missing = missing[1:]
            else:
                missing.append(derived)
        if missing:
            raise TransformAborted(
                f"rs_to_msr: sources lost beyond failover "
                f"(parity_ok={parity_ok}, missing groups {sorted(set(missing))})"
            )
        return needed, derived

    def _rs_to_msr(
        self, data: np.ndarray, rs_parity: np.ndarray, fault_hook=None
    ) -> RsToMsrResult:
        if not (
            data.__class__ is np.ndarray and data.dtype is _SYMBOL and data.flags.c_contiguous
        ):
            data = as_symbols(data, "data")
        if not (
            rs_parity.__class__ is np.ndarray
            and rs_parity.dtype is _SYMBOL
            and rs_parity.flags.c_contiguous
        ):
            rs_parity = as_symbols(rs_parity, "rs_parity")
        if data.ndim != 2 or len(data) != self.k:
            raise ValueError(f"expected ({self.k}, L) data blocks, got {data.shape}")
        q, r, l = self.q, self.r, self.subpacketization
        L = data.shape[1]
        if L % l:
            raise _block_len_error(L, l)
        if rs_parity.shape != (r, L):
            raise ValueError(f"rs_parity must be ({r}, {L}), got {rs_parity.shape}")
        if fault_hook is None:
            needed, derived = self._read_groups, q - 1
        else:
            needed, derived = self._rs_sources(fault_hook)
        cost = self._highway_costs["rs_to_msr", L, len(needed), 0 if derived is None else 1]

        # Every probe passed: from here on only the new parity sets (built
        # aside, handed over on return) are written.  All of them are
        # (r, L) like the RS parity they replace, so the allocator recycles
        # one conversion's freed blocks in the next.  Each call reads the
        # data and the RS parity as symbols and writes two groups' parity
        # sets as (r·l, L/l) symbol views.
        big = r * L >= STREAM_BYTES  # start them on a cache line: the kernel streams
        out = []
        for _ in range(q):
            out.append(aligned_empty((r, L)) if big else np.empty((r, L), np.uint8))
        syms = (r * l, L // l)
        blocks, tail = data.reshape(-1, syms[1]), rs_parity.reshape(syms)
        for plan, g, h in self._derivations[derived]:
            plan.apply_into(
                blocks, out[g].reshape(syms), False, tail, None if h is None else out[h].reshape(syms)
            )
        if METRICS.enabled:
            # naive re-encode would read all k data blocks; the intermediary
            # highway derives the last group's p' from the RS parities instead
            saved = (self.k - cost.data_blocks_read) * L
            METRICS.counter("fusion.transform.rs_to_msr", unit="conversions").inc()
            METRICS.counter("fusion.transform.gf_ops", unit="gf-ops").inc(cost.gf_ops)
            METRICS.counter("fusion.transform.bytes_saved", unit="bytes").inc(saved)
        return RsToMsrResult(data=data, parity=out, cost=cost)

    def rs_to_msr_batch(
        self, data: np.ndarray, rs_parity: np.ndarray
    ) -> list[RsToMsrResult]:
        """Fault-free :meth:`rs_to_msr` of each stripe of a ``(batch, k, L)``
        stack, given its ``(batch, r, L)`` RS parities."""
        data = as_symbols(data, "data")
        rs_parity = as_symbols(rs_parity, "rs_parity")
        if data.ndim != 3 or data.shape[1] != self.k:
            raise ValueError(
                f"data must be (batch, {self.k}, L) stacks, got {data.shape}"
            )
        batch, _, L = data.shape
        if L % self.subpacketization:
            raise _block_len_error(L, self.subpacketization)
        if rs_parity.shape != (batch, self.r, L):
            raise ValueError(
                f"rs_parity must be ({batch}, {self.r}, {L}), got {rs_parity.shape}"
            )
        return [self.rs_to_msr(d, p) for d, p in zip(data, rs_parity)]

    def msr_to_rs_batch(self, msr_parities: list[np.ndarray]) -> list[MsrToRsResult]:
        """Fault-free :meth:`msr_to_rs` of each stripe of a batch, given ``q``
        ``(batch, r, L)`` stacks (group ``i``'s MSR parities of each)."""
        if len(msr_parities) != self.q:
            raise ValueError(f"expected {self.q} parity groups, got {len(msr_parities)}")
        pars = [as_symbols(p, "msr parity") for p in msr_parities]
        shapes = {p.shape for p in pars}
        if len(shapes) != 1 or pars[0].ndim != 3 or pars[0].shape[1] != self.r:
            raise ValueError(
                f"parity groups must share one (batch, {self.r}, L) shape, "
                f"got {sorted(shapes)}"
            )
        batch, _, L = pars[0].shape
        if L % self.subpacketization:
            raise _block_len_error(L, self.subpacketization)
        return [self.msr_to_rs([p[b] for p in pars]) for b in range(batch)]

    def msr_to_rs(
        self,
        msr_parities: list[np.ndarray],
        fault_hook=None,
        data: np.ndarray | None = None,
    ) -> MsrToRsResult:
        """Merge q groups' MSR parities into the RS parities (Fig. 12(a)).

        Touches *only* parity blocks: Trans1 (eq. (6)) maps each group's
        MSR parities straight to its intermediary parity, and eq. (3)
        XOR-merges them.

        ``fault_hook(phase, group)`` may raise :class:`ChunkUnavailable`
        for ``("parity", i)`` probes.  A group whose MSR parities are lost
        fails over to its *data* blocks when ``data`` (the full (k, L)
        stripe) is supplied and readable (``("data", i)`` probe): eq. (3)
        computes p′_i = B_i·d_i directly, byte-identical.  Otherwise the
        conversion raises :class:`TransformAborted` with inputs untouched.
        """
        if METRICS.enabled:
            with METRICS.timer("fusion.transform.wall.msr_to_rs", unit="s"):
                return self._msr_to_rs(msr_parities, fault_hook, data)
        return self._msr_to_rs(msr_parities, fault_hook, data)

    def _msr_to_rs(
        self,
        msr_parities: list[np.ndarray],
        fault_hook=None,
        data: np.ndarray | None = None,
    ) -> MsrToRsResult:
        q, r, l = self.q, self.r, self.subpacketization
        if len(msr_parities) != q:
            raise ValueError(f"expected {q} parity groups, got {len(msr_parities)}")
        first = msr_parities[0]
        L = (first if first.__class__ is np.ndarray else np.asarray(first)).shape[1]
        if L % l:
            raise _block_len_error(L, l)
        if data is not None:
            if not (
                data.__class__ is np.ndarray and data.dtype is _SYMBOL and data.flags.c_contiguous
            ):
                data = as_symbols(data, "data")
            if data.shape != (self.k, L):
                raise ValueError(f"data must be ({self.k}, {L}), got {data.shape}")
        # Each group's source is probed in turn: its MSR parities, or its
        # data when those are lost (eq. (3) then computes p′_i = B_i·d_i,
        # byte-identical).  The new RS parity is built aside, XOR-merging
        # the groups' p′_i two groups per application; every input is read
        # as (rows·l, L/l) symbols.
        sub = L // l
        inputs = []
        from_data = ()
        for i, par in enumerate(msr_parities):
            if not (
                par.__class__ is np.ndarray and par.dtype is _SYMBOL and par.flags.c_contiguous
            ):
                par = as_symbols(par, "msr parity")
            if par.shape != (r, L):
                raise ValueError(f"group {i} parity must be ({r}, {L})")
            if fault_hook is None or self._read_source(fault_hook, "parity", i):
                inputs.append(par.reshape(r * l, sub))
            elif data is not None and self._read_source(fault_hook, "data", i):
                inputs.append(data[i * r : (i + 1) * r].reshape(-1, sub))
                from_data += (i,)
            else:
                raise TransformAborted(
                    f"msr_to_rs: group {i} parities lost and no readable data "
                    f"failover"
                )
        if r * L >= STREAM_BYTES:  # start it on a cache line: the kernel streams
            acc = aligned_empty((r * l, sub))
        else:
            acc = np.empty((r * l, sub), np.uint8)
        for plan, i, j in self._merges[from_data]:
            plan.apply_into(inputs[i], acc, i > 0, None if j is None else inputs[j])
        acc = acc.reshape(r, L)
        cost = self._highway_costs["msr_to_rs", L, len(from_data), q - len(from_data)]
        if METRICS.enabled:
            # naive re-encode would read all k data blocks; Trans1 works from
            # the q·r MSR parity blocks alone (eq. (6))
            METRICS.counter("fusion.transform.msr_to_rs", unit="conversions").inc()
            METRICS.counter("fusion.transform.gf_ops", unit="gf-ops").inc(cost.gf_ops)
            METRICS.counter("fusion.transform.bytes_saved", unit="bytes").inc(self.k * L)
        return MsrToRsResult(parity=acc, cost=cost)

    # ---------------------------------------------------------- the families
    @cached_property
    def cost_model(self) -> CostModel:
        """``CostModel(k, r)``: its family descriptors shape and price
        every code the converter holds."""
        return CostModel(self.k, self.r, SystemProfile())

    def codec(self, code: str):
        """The codec holding ``code``'s parity (``"msr"``: one group's
        MSR(2r, r)).  LRC and FR are built on first use in the shape of
        their :attr:`cost_model` descriptor; a shape their codec cannot
        take raises :class:`~repro.codes.ParameterError`."""
        codec = self._codecs.get(code)
        if codec is None:
            from ..codes import FractionalRepetitionCode, LocalReconstructionCode

            fam = self.cost_model.family(code)
            if code == "lrc":
                codec = LocalReconstructionCode(self.k, fam.r, fam.z)
            else:
                codec = FractionalRepetitionCode(self.k, fam.r, rho=fam.rho)
            self._codecs[code] = codec
        return codec

    def _instances(self, code: str) -> list[range]:
        """Data rows of each code instance of a ``code`` stripe, one per
        parity array: every row, or one group per MSR instance."""
        if code != "msr":
            return [range(self.k)]
        return [range(i * self.r, min((i + 1) * self.r, self.k)) for i in range(self.q)]

    def encode(self, data: np.ndarray, code: str) -> StripeStore:
        """A fresh stripe of ``(k, L)`` data in ``code``, each family's
        parity computed by that family's own codec."""
        code = CodeKind(code)
        data = as_symbols(data, "data")
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(f"expected ({self.k}, L) data blocks, got {data.shape}")
        codec = self.codec(code)
        parity = [
            codec.encode(
                data[rows.start : rows.stop],
                out=np.empty((codec.n - codec.k, data.shape[1]), dtype=np.uint8),
            )
            for rows in self._instances(code)
        ]
        return StripeStore(code, data, parity)

    # ---------------------------------------------------------- the converter
    def convert(
        self, stripe: StripeStore, target: str, fault_hook=None
    ) -> TransformCost:
        """Move ``stripe`` into ``target`` in place and return what it cost.

        RS → MSR and MSR → RS run :meth:`rs_to_msr` / :meth:`msr_to_rs`
        (the latter with the stripe's data as its failover); every other
        edge is a :meth:`_reencode`.  ``fault_hook(phase, group)`` probes
        each source read as in those methods: ``("data", i)`` per data
        group, ``("parity", g)`` per MSR group's parities or
        ``("parity", -1)`` for the parity set of an RS, LRC or FR stripe.

        The stripe's shape, family and block length are checked before the
        conversion is journalled; from then on any exception closes the
        entry as an abort and leaves the stripe exactly as it was — the new
        parity is built aside, and ``kind`` and ``parity`` are swapped
        together on success only.  ``data`` never moves.
        """
        source = stripe.kind
        if source == target:
            return TransformCost()
        edge, target, sets, rows, unit = self._routes[source, target]
        L = stripe.data.shape[-1]
        shapes = list(map(_shape, stripe.parity))
        if stripe.data.shape != (self.k, L) or L % unit or shapes != [(rows, L)] * sets:
            raise ValueError(
                f"a {CodeKind(source).value}->{target.value} stripe is "
                f"({self.k}, L) data and {sets} ({rows}, L) parity arrays, L a "
                f"multiple of {unit}; got {stripe.data.shape} and {shapes}"
            )
        self.journal_open += 1
        try:
            if edge == "rs_to_msr":
                res = self.rs_to_msr(stripe.data, stripe.parity[0], fault_hook=fault_hook)
                parity, cost = res.parity, res.cost
            elif edge == "msr_to_rs":
                res = self.msr_to_rs(stripe.parity, fault_hook=fault_hook, data=stripe.data)
                parity, cost = [res.parity], res.cost
            else:
                parity, cost = self._reencode(stripe, source, target, fault_hook)
        except BaseException:
            self.journal_aborted += 1
            if METRICS.enabled:
                METRICS.counter("fusion.transform.aborted", unit="conversions").inc()
            raise
        finally:
            self.journal_open -= 1
        self.journal_committed += 1
        stripe.kind, stripe.parity = target, parity
        return cost

    def _route(self, pair: tuple) -> tuple:
        """``(highway edge or None, target member, source parity arrays,
        their rows, block length unit)`` of one ordered ``(source, target)``
        pair, worked out on its first use (interned in :attr:`_routes`)."""
        source, target = pair
        codec = self.codec(source)  # an unknown family raises ValueError
        return (
            self._HIGHWAYS.get(pair),
            CodeKind(target),
            self.q if source == "msr" else 1,
            codec.n - codec.k,
            math.lcm(codec.subpacketization, self.codec(target).subpacketization),
        )

    def _reencode(self, stripe, source, target, fault_hook):
        """Full re-encode: read the k data chunks, encode ``target``'s
        parity, priced by the target descriptor's ``encode_ops``."""
        edge = f"{CodeKind(source).value}_to_{target.value}"
        with METRICS.timer(f"fusion.transform.wall.{edge}", unit="s"):
            cost = TransformCost()
            data = self._read_data(stripe, source, fault_hook, cost)
            parity = self.encode(data, target).parity
            cost.blocks_written = sum(len(p) for p in parity)
            cost.gf_ops += self.cost_model.family(target).encode_ops(data.shape[1])
        if METRICS.enabled:
            METRICS.counter(f"fusion.transform.{edge}", unit="conversions").inc()
            METRICS.counter("fusion.transform.gf_ops", unit="gf-ops").inc(cost.gf_ops)
        return parity, cost

    #: the registered cheap edges, keyed like
    #: :data:`repro.codes.families.CONVERSION_EDGES`; :meth:`convert` runs
    #: each through its public method
    _HIGHWAYS = {("rs", "msr"): "rs_to_msr", ("msr", "rs"): "msr_to_rs"}

    def _read_data(self, stripe: StripeStore, source, fault_hook, cost: TransformCost):
        """The k data chunks, each data group the fault hook reports lost
        decoded by the source codec from the rest of its code instance —
        the group's own MSR(2r, r) codeword for an MSR stripe.  A decoded
        copy comes back; ``stripe`` is never written."""
        k, L = self.k, stripe.data.shape[1]
        lost = {
            row for g, rows in enumerate(self._instances("msr"))
            if not self._read_source(fault_hook, "data", g) for row in rows
        }
        cost.data_blocks_read += k - len(lost)
        data = stripe.data.copy() if lost else stripe.data
        codec = self.codec(source)
        for g, (rows, parity) in enumerate(zip(self._instances(source), stripe.parity)):
            if lost.isdisjoint(rows):
                continue
            if not self._read_source(fault_hook, "parity", g if source == "msr" else -1):
                raise TransformAborted(f"{codec.name} instance {g}: data, parity lost")
            shards = {j: data[row] for j, row in enumerate(rows) if row not in lost}
            # a padded MSR group's virtual data nodes are known zero blocks
            shards.update((j, np.zeros(L, np.uint8)) for j in range(len(rows), codec.k))
            shards.update((codec.k + x, block) for x, block in enumerate(parity))
            try:
                data[rows.start : rows.stop] = codec.decode_data(shards)[: len(rows)]
            except UnrecoverableError as exc:
                raise TransformAborted(f"{codec.name} instance {g}: {exc}") from exc
            cost.parity_blocks_read += len(parity)
            cost.gf_ops += len(lost.intersection(rows)) * codec.k * L
        return data

    # -------------------------------------------------------------- validation
    def verify_roundtrip(self, rng: np.random.Generator, L: int | None = None) -> bool:
        """Self-check: RS → MSR → RS reproduces the original parities and
        each MSR group is a valid codeword."""
        if L is None:
            L = self.subpacketization * 4
        data = rng.integers(0, 256, (self.k, L), dtype=np.uint8)
        coded = self.rs.encode(data)
        fwd = self.rs_to_msr(data, coded[self.k :])
        for g in fwd.groups:
            if not np.array_equal(self.msr.encode(g[: self.r]), g):
                return False
        back = self.msr_to_rs(fwd.parity)
        return np.array_equal(back.parity, coded[self.k :])

