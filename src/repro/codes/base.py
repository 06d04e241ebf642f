"""Common abstractions for the erasure codes in this repository.

Every code here — RS, LRC, FR, Hitchhiker, MSR — is a *linear* code over
GF(2^w), so the shared machinery is a systematic generator matrix acting on
"blocks": a node's contribution to one stripe is a block of ``L`` bytes,
and vector codes (sub-packetization ``l`` > 1) view that block as ``l``
sub-blocks of ``L / l`` bytes.

The flattened symbol layout used throughout is ``symbol = node * l + plane``
so the generator of a vector code has shape ``(n*l, k*l)``.

:class:`LinearVectorCode` provides generic encode (one vectorized
scale-and-XOR per generator coefficient) and generic erasure decode
(select ``k*l`` independent generator rows among the surviving symbols,
invert once per erasure pattern, cache).  Subclasses override
:meth:`repair` when they have a cheaper single-failure path (LRC locality,
MSR regeneration).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..gf import GF, CodingPlan, inverse
from ..gf.matrix import independent_rows
from ..telemetry import METRICS

__all__ = [
    "CodeError",
    "ParameterError",
    "UnrecoverableError",
    "RepairResult",
    "ErasureCode",
    "LinearVectorCode",
]


class CodeError(Exception):
    """Base class for erasure-coding errors."""


class ParameterError(CodeError):
    """Invalid code parameters."""


class UnrecoverableError(CodeError):
    """The requested erasure pattern cannot be decoded by this code."""


@dataclass(frozen=True)
class RepairResult:
    """Outcome of a single-node repair.

    Attributes
    ----------
    block:
        The reconstructed block of the failed node, shape ``(L,)``.
    bytes_read:
        Bytes read from each helper node (the network/disk traffic the
        repair incurred), keyed by node index.
    """

    block: np.ndarray
    bytes_read: dict[int, int] = field(default_factory=dict)

    @property
    def total_bytes_read(self) -> int:
        """Total repair traffic in bytes across all helpers."""
        return sum(self.bytes_read.values())


class ErasureCode(abc.ABC):
    """Abstract erasure code storing ``k`` data and ``r`` parity blocks.

    Subclasses must set :attr:`n`, :attr:`k`, :attr:`r` and
    :attr:`subpacketization` in ``__init__`` and implement the three
    core operations.
    """

    #: total / data / parity node counts
    n: int
    k: int
    r: int
    #: number of sub-blocks each node's block divides into (1 for scalar codes)
    subpacketization: int
    #: field word size; symbols are elements of GF(2^w)
    w: int = 8

    @cached_property
    def symbol_dtype(self):
        """NumPy dtype of one code symbol."""
        return GF.get(self.w).dtype

    @cached_property
    def _symbol_size(self) -> int:
        """Bytes per symbol: input of a wider dtype is refused, not wrapped."""
        return np.dtype(self.symbol_dtype).itemsize

    # -- identity ----------------------------------------------------------
    @property
    def name(self) -> str:
        """Short human-readable identifier, e.g. ``RS(8,3)``."""
        return f"{type(self).__name__}({self.k},{self.r})"

    @property
    def telemetry_key(self) -> str:
        """Metric namespace: counters land under ``codes.<key>.*``.

        Defaults to the lowercased class name; RS, MSR and FR override it
        with their conventional short names.
        """
        return type(self).__name__.replace("Code", "").lower()

    @property
    def storage_overhead(self) -> float:
        """Storage cost ρ = n / k (paper metric (1.a))."""
        return self.n / self.k

    @property
    def data_nodes(self) -> range:
        """Indices of the systematic (data) nodes."""
        return range(self.k)

    @property
    def parity_nodes(self) -> range:
        """Indices of all parity nodes."""
        return range(self.k, self.n)

    @property
    @abc.abstractmethod
    def fault_tolerance(self) -> int:
        """Number of arbitrary node erasures the code guarantees to survive."""

    # -- core operations -----------------------------------------------------
    @abc.abstractmethod
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode ``k`` data blocks into the full ``n``-block codeword.

        ``data`` has shape ``(k, L)`` with ``L`` a multiple of the
        sub-packetization; the result is ``(n, L)`` with the first ``k``
        rows equal to ``data`` (systematic layout).
        """

    @abc.abstractmethod
    def decode(self, shards: Mapping[int, np.ndarray]) -> np.ndarray:
        """Recover the full codeword ``(n, L)`` from surviving shards.

        Raises :class:`UnrecoverableError` if the erasure pattern exceeds
        what the code can repair.
        """

    @abc.abstractmethod
    def repair(self, failed: int, shards: Mapping[int, np.ndarray]) -> RepairResult:
        """Rebuild one failed node, reading as little as the code allows.

        ``shards`` maps surviving node → block; the rebuilt block is a
        fresh array.  RS and MSR also take the stored stripe itself, as a
        ``(data, parity)`` pair of arrays, and rebuild the row in place.
        """

    # -- planning (used by the cluster simulator without real data) ---------
    def repair_read_fractions(self, failed: int) -> dict[int, float]:
        """Fraction of each helper's block a single-node repair must read.

        Default: a generic MDS-style repair reading ``k`` whole blocks from
        the ``k`` lowest-indexed survivors.
        """
        helpers = [i for i in range(self.n) if i != failed][: self.k]
        return {i: 1.0 for i in helpers}

    # -- validation helpers --------------------------------------------------
    def _check_data(self, data: np.ndarray, shortened: bool = False) -> np.ndarray:
        """Validate ``(k, L)`` data blocks; ``shortened`` also admits the
        leading ``1..k`` rows of a stripe whose trailing data nodes are
        virtual all-zero blocks."""
        data = np.asarray(data)
        rows = data.shape[0] if data.ndim == 2 else -1
        if rows != self.k and not (shortened and 0 < rows < self.k):
            raise ValueError(f"data must have shape (k={self.k}, L), got {data.shape}")
        if data.shape[1] % self.subpacketization:
            raise ValueError(
                f"block length {data.shape[1]} not a multiple of "
                f"sub-packetization {self.subpacketization}"
            )
        if data.dtype.itemsize > self._symbol_size:
            raise ValueError(
                f"data dtype {data.dtype} is wider than GF(2^{self.w}) symbols"
            )
        return np.ascontiguousarray(data, dtype=self.symbol_dtype)

    def _check_shards(self, shards: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        if not shards:
            raise UnrecoverableError("no shards supplied")
        lengths = {np.asarray(b).shape for b in shards.values()}
        if len(lengths) != 1:
            raise ValueError(f"inconsistent shard shapes: {lengths}")
        out = {}
        for i, b in shards.items():
            if not 0 <= i < self.n:
                raise ValueError(f"shard index {i} out of range for n={self.n}")
            arr = np.asarray(b)
            if arr.dtype.itemsize > self._symbol_size:
                raise ValueError(
                    f"shard dtype {arr.dtype} is wider than GF(2^{self.w}) symbols"
                )
            out[i] = np.ascontiguousarray(arr, dtype=self.symbol_dtype)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name} n={self.n} l={self.subpacketization}>"


class LinearVectorCode(ErasureCode):
    """An erasure code defined by a systematic generator matrix.

    Parameters
    ----------
    n, k:
        Node counts (``r = n - k``).
    generator:
        Systematic generator of shape ``(n*l, k*l)`` whose top ``k*l`` rows
        are the identity.
    subpacketization:
        Sub-blocks per node block (``l``).
    """

    def __init__(
        self,
        n: int,
        k: int,
        generator: np.ndarray,
        subpacketization: int = 1,
        w: int = 8,
    ):
        if n <= k or k <= 0:
            raise ParameterError(f"need n > k > 0, got n={n}, k={k}")
        self.w = w
        l = subpacketization
        generator = np.asarray(generator)
        if generator.dtype.itemsize > self._symbol_size:
            raise ParameterError(
                f"generator dtype {generator.dtype} too wide for GF(2^{w})"
            )
        generator = generator.astype(self.symbol_dtype, copy=False)
        if generator.shape != (n * l, k * l):
            raise ParameterError(
                f"generator shape {generator.shape} != ({n * l}, {k * l})"
            )
        if not np.array_equal(generator[: k * l], np.eye(k * l, dtype=self.symbol_dtype)):
            raise ParameterError("generator is not systematic (top block must be identity)")
        self.n = n
        self.k = k
        self.r = n - k
        self.subpacketization = l
        self.generator = generator
        # Encode applies the same parity rows for the lifetime of the code:
        # compile them once (eagerly, so thread pools never race a lazy build).
        self._parity_plan = CodingPlan(generator[k * l :], w=w)
        self._shortened_plans: dict[int, CodingPlan] = {}
        self._decode_cache: dict[frozenset[int], tuple[CodingPlan, list[int]]] = {}

    # -- layout helpers ------------------------------------------------------
    def _to_symbols(self, blocks: np.ndarray) -> np.ndarray:
        """(nodes, L) -> (nodes*l, L/l): split each block into its planes."""
        nodes, L = blocks.shape
        l = self.subpacketization
        return blocks.reshape(nodes * l, L // l)

    def _to_blocks(self, symbols: np.ndarray, nodes: int) -> np.ndarray:
        """Inverse of :meth:`_to_symbols`."""
        total, sub = symbols.shape
        return symbols.reshape(nodes, (total // nodes) * sub)

    def node_symbols(self, node: int) -> range:
        """Flattened symbol indices belonging to ``node``."""
        l = self.subpacketization
        return range(node * l, (node + 1) * l)

    # -- encode ----------------------------------------------------------------
    def _shortened_parity_plan(self, data_nodes: int) -> CodingPlan:
        """Parity plan of the code shortened to its first ``data_nodes``
        data nodes (the others are virtual all-zero blocks, so their
        generator columns drop out).  Compiled on first use."""
        if data_nodes == self.k:
            return self._parity_plan
        plan = self._shortened_plans.get(data_nodes)
        if plan is None:
            l = self.subpacketization
            plan = self._shortened_plans[data_nodes] = CodingPlan(
                self.generator[self.k * l :, : data_nodes * l], w=self.w
            )
        return plan

    def encode(self, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Encode ``(k, L)`` data; parity is computed where it is stored.

        Without ``out`` a fresh ``(n, L)`` codeword is returned.  ``out``
        donates the destination and is returned: either an ``(n, L)``
        codeword buffer (data is copied into its first ``k`` rows) or a
        bare ``(n − k, L)`` parity buffer for callers that keep the data
        rows elsewhere.  Only in the parity-buffer form may ``data`` hold just
        the leading rows of a *shortened* stripe, whose remaining data
        nodes are virtual all-zero blocks.  ``out`` must be a C-contiguous
        array of the symbol dtype, else :class:`ValueError`.
        """
        parities = self.n - self.k  # LRC's ``r`` counts its global parities only
        parity_only = (
            isinstance(out, np.ndarray) and out.ndim == 2 and len(out) == parities
        )
        data = self._check_data(data, shortened=parity_only)
        rows, L = data.shape
        if out is None:
            out = np.empty((self.n, L), dtype=self.symbol_dtype)
        elif (
            not isinstance(out, np.ndarray)
            or out.shape not in ((self.n, L), (parities, L))
            or out.dtype != self.symbol_dtype
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous {np.dtype(self.symbol_dtype)} array of "
                f"shape ({self.n}, {L}) or ({parities}, {L})"
            )
        parity = out
        if not parity_only:
            out[: self.k] = data
            parity = out[self.k :]
        l = self.subpacketization  # the symbol views of _to_symbols
        self._shortened_parity_plan(rows).apply_into(
            data.reshape(rows * l, L // l), parity.reshape(parities * l, L // l)
        )
        if METRICS.enabled:
            key = self.telemetry_key
            METRICS.counter(f"codes.{key}.encode_calls", unit="calls").inc()
            # GF-multiply volume: one coefficient x byte MAC per parity-matrix
            # entry per symbol column -> r·l x k·l x L/l = r·k·l·L bytes
            METRICS.counter(f"codes.{key}.gf_mul_bytes", unit="bytes").inc(
                self.r * rows * self.subpacketization * L
            )
        return out

    def _check_stripe(
        self, stripe, shortened: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate a stored stripe handed over for in-place repair.

        The stripe is a ``(data, parity)`` pair of C-contiguous
        symbol-dtype arrays — ``(k, L)`` and ``(n − k, L)``, node order — that
        the caller owns; the repair writes the lost node's row into it.
        ``shortened`` admits ``1..k`` data rows (trailing data nodes are
        virtual all-zero blocks that are neither read nor counted).
        """
        try:
            data, parity = stripe
        except (TypeError, ValueError):
            raise ValueError(
                "shards must map node -> block or be a (data, parity) pair"
            ) from None
        for arr in (data, parity):
            if (
                not isinstance(arr, np.ndarray)
                or arr.ndim != 2
                or arr.dtype != self.symbol_dtype
                or not ((flags := arr.flags).c_contiguous and flags.writeable)
            ):
                raise ValueError(
                    "stripe rows must be writeable C-contiguous 2-D "
                    f"{np.dtype(self.symbol_dtype)} arrays"
                )
        data = self._check_data(data, shortened=shortened)
        if parity.shape != (self.n - self.k, data.shape[1]):
            raise ValueError(
                f"parity must have shape ({self.n - self.k}, {data.shape[1]}), "
                f"got {parity.shape}"
            )
        return data, parity

    def _stripe_from_shards(
        self, shards: Mapping[int, np.ndarray], helpers: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The helpers' blocks copied into a fresh stripe, as ``(data, parity)``.

        What the mapping form of an in-place repair runs on.  Rows of the
        other nodes stay uninitialised — their plan columns are zero.
        """
        L = shards[helpers[0]].shape[0]
        codeword = np.empty((self.n, L), dtype=self.symbol_dtype)
        for i in helpers:
            codeword[i] = shards[i]
        return codeword[: self.k], codeword[self.k :]

    def encode_batch(self, stripes: np.ndarray) -> np.ndarray:
        """Encode a ``(batch, k, L)`` stack of stripes in one fused dispatch.

        Every stripe multiplies the same compiled parity plan, so the whole
        batch folds into a single
        :meth:`~repro.gf.CodingPlan.apply_batch` application instead of
        ``batch`` separate kernel launches — the per-stripe NumPy dispatch
        overhead that dominates campaign encodes of small blocks
        disappears.  Byte-identical to looping :meth:`encode`, including
        the telemetry counters it leaves behind.
        """
        stripes = np.asarray(stripes)
        if stripes.ndim != 3 or stripes.shape[1] != self.k:
            raise ValueError(
                f"stripes must have shape (batch, k={self.k}, L), got {stripes.shape}"
            )
        batch, _, L = stripes.shape
        if L % self.subpacketization:
            raise ValueError(
                f"block length {L} not a multiple of "
                f"sub-packetization {self.subpacketization}"
            )
        if stripes.dtype.itemsize > self._symbol_size:
            raise ValueError(
                f"data dtype {stripes.dtype} is wider than GF(2^{self.w}) symbols"
            )
        stripes = np.ascontiguousarray(stripes, dtype=self.symbol_dtype)
        l = self.subpacketization
        syms = stripes.reshape(batch, self.k * l, L // l)
        parity_syms = self._parity_plan.apply_batch(syms)
        out = np.empty((batch, self.n, L), dtype=self.symbol_dtype)
        out[:, : self.k] = stripes
        out[:, self.k :] = parity_syms.reshape(batch, self.n - self.k, L)
        if METRICS.enabled and batch:
            key = self.telemetry_key
            METRICS.counter(f"codes.{key}.encode_calls", unit="calls").inc(batch)
            METRICS.counter(f"codes.{key}.gf_mul_bytes", unit="bytes").inc(
                batch * self.r * self.k * l * L
            )
        return out

    # -- decode ----------------------------------------------------------------
    def _decode_plan(self, avail: frozenset[int]) -> tuple[CodingPlan, list[int]]:
        """Return (solve_plan, symbol_rows) for an erasure pattern.

        ``solve_plan`` is the compiled (k*l × k*l) solve matrix; applied to
        the listed surviving symbol rows it yields the data symbols.
        Cached per availability pattern, so repeated decodes of one erasure
        pattern pay inversion *and* plan compilation once.
        """
        plan = self._decode_cache.get(avail)
        if plan is not None:
            return plan
        l = self.subpacketization
        kl = self.k * l
        rows = [s for node in sorted(avail) for s in self.node_symbols(node)]
        sub = self.generator[rows]
        chosen = independent_rows(sub, w=self.w)
        if len(chosen) < kl:
            raise UnrecoverableError(
                f"{self.name}: erasure pattern with survivors {sorted(avail)} "
                f"is undecodable (rank {len(chosen)} < {kl})"
            )
        chosen = chosen[:kl]
        solve_matrix = inverse(sub[chosen], w=self.w)
        plan = (CodingPlan(solve_matrix, w=self.w), [rows[c] for c in chosen])
        self._decode_cache[avail] = plan
        return plan

    def is_decodable(self, available_nodes: Sequence[int]) -> bool:
        """True iff the data can be recovered from the given surviving nodes."""
        try:
            self._decode_plan(frozenset(available_nodes))
            return True
        except UnrecoverableError:
            return False

    def decode_data(self, shards: Mapping[int, np.ndarray]) -> np.ndarray:
        """Recover only the ``k`` data blocks — skips re-deriving parities.

        This is the cheap path for degraded reads: one matrix application
        instead of decode + full re-encode.
        """
        shards = self._check_shards(shards)
        avail = frozenset(shards)
        some = next(iter(shards.values()))
        L = some.shape[0]
        if L % self.subpacketization:
            raise ValueError(
                f"block length {L} not a multiple of l={self.subpacketization}"
            )
        solve_plan, symbol_rows = self._decode_plan(avail)
        l = self.subpacketization
        stacked = np.stack([shards[i] for i in sorted(avail)])
        syms = self._to_symbols(stacked)
        # map global symbol row -> position within the stacked survivor symbols
        order = {node: pos for pos, node in enumerate(sorted(avail))}
        local_rows = [order[row // l] * l + (row % l) for row in symbol_rows]
        data_syms = solve_plan.apply(syms[local_rows])
        if METRICS.enabled:
            key = self.telemetry_key
            METRICS.counter(f"codes.{key}.decode_calls", unit="calls").inc()
            # solve matrix is (k·l)² entries applied to L/l columns
            METRICS.counter(f"codes.{key}.gf_mul_bytes", unit="bytes").inc(
                self.k * self.k * l * L
            )
        return self._to_blocks(data_syms, self.k)

    def _check_shard_stacks(
        self, shards: Mapping[int, np.ndarray]
    ) -> tuple[dict[int, np.ndarray], int, int]:
        """Validate batched shards (node → ``(batch, L)`` stack).

        Returns the contiguous symbol-dtype stacks plus ``(batch, L)``.
        """
        if not shards:
            raise UnrecoverableError("no shards supplied")
        arrs = {}
        shapes = set()
        for i, b in shards.items():
            if not 0 <= i < self.n:
                raise ValueError(f"shard index {i} out of range for n={self.n}")
            arr = np.asarray(b)
            if arr.ndim != 2:
                raise ValueError(
                    f"batched shards must be (batch, L) stacks, got {arr.shape}"
                )
            if arr.dtype.itemsize > self._symbol_size:
                raise ValueError(
                    f"shard dtype {arr.dtype} is wider than GF(2^{self.w}) symbols"
                )
            shapes.add(arr.shape)
            arrs[i] = np.ascontiguousarray(arr, dtype=self.symbol_dtype)
        if len(shapes) != 1:
            raise ValueError(f"inconsistent shard shapes: {shapes}")
        batch, L = shapes.pop()
        if L % self.subpacketization:
            raise ValueError(
                f"block length {L} not a multiple of l={self.subpacketization}"
            )
        return arrs, batch, L

    def decode(self, shards: Mapping[int, np.ndarray]) -> np.ndarray:
        return self.encode(self.decode_data(shards))

    # -- repair ------------------------------------------------------------------
    def repair(self, failed: int, shards: Mapping[int, np.ndarray]) -> RepairResult:
        """Generic repair: full decode from ``k``-equivalent survivors.

        Reads whole blocks from every shard it consumes; subclasses with
        bandwidth-efficient repair override this.
        """
        shards = self._check_shards(shards)
        if failed in shards:
            raise ValueError(f"node {failed} is present in the supplied shards")
        if METRICS.enabled:
            METRICS.counter(f"codes.{self.telemetry_key}.repair_calls", unit="calls").inc()
        full = self.decode(shards)
        wanted = self.repair_read_fractions(failed)
        used = {i: shards[i] for i in wanted if i in shards}
        if len(used) < len(wanted):
            used = shards  # fell back to whatever was available
        bytes_read = {i: b.shape[0] for i, b in used.items()}
        return RepairResult(block=full[failed], bytes_read=bytes_read)
