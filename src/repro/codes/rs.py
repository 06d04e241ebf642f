"""Systematic Reed–Solomon code RS(k, r) over GF(2^8).

The parity coefficients come from a Cauchy matrix, so every square
submatrix of the parity block is invertible.  Two consequences matter for
EC-Fusion:

* the code is MDS — any ``k`` of the ``n = k + r`` blocks recover the data;
* the r×r group blocks ``B_i`` obtained by slicing the parity matrix
  column-wise (paper eq. (3)) are invertible, enabling the intermediary-
  parity transformation of :mod:`repro.fusion.transform` (eq. (4)).

Single-node repair in RS has no shortcut: it reads ``k`` full surviving
blocks — exactly the recovery-bandwidth weakness EC-Fusion works around by
converting hot stripes to MSR.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..gf import CodingPlan, inverse, matmul, systematic_rs_parity
from ..telemetry import METRICS
from .base import LinearVectorCode, ParameterError, RepairResult, UnrecoverableError

__all__ = ["ReedSolomonCode"]


class ReedSolomonCode(LinearVectorCode):
    """RS(k, r): ``k`` data blocks, ``r`` Cauchy parities, MDS.

    Examples
    --------
    >>> import numpy as np
    >>> rs = ReedSolomonCode(k=4, r=2)
    >>> data = np.arange(4 * 8, dtype=np.uint8).reshape(4, 8)
    >>> coded = rs.encode(data)
    >>> lost = {i: coded[i] for i in (0, 2, 3, 5)}   # drop nodes 1 and 4
    >>> bool(np.array_equal(rs.decode(lost), coded))
    True
    """

    def __init__(self, k: int, r: int):
        if k <= 0 or r <= 0:
            raise ParameterError(f"RS needs k > 0 and r > 0, got k={k}, r={r}")
        if k + r > 256:
            raise ParameterError(f"RS({k},{r}) does not fit in GF(2^8)")
        parity = systematic_rs_parity(k, r)
        generator = np.concatenate([np.eye(k, dtype=parity.dtype), parity], axis=0)
        super().__init__(n=k + r, k=k, generator=generator, subpacketization=1)
        #: the r×k parity-coefficient matrix P (p = P @ d)
        self.parity_matrix = parity
        # per-(failed, helpers) repair-coefficient row and its compiled
        # one-row plan over the stripe, both built lazily on first repair
        self._repair_coeff_cache: dict[tuple, np.ndarray] = {}
        self._repair_plans: dict[tuple, CodingPlan] = {}
        #: per (failed, helpers), each helper's 1 × 1 plan of a streamed repair
        self._streamed_plans: dict[tuple, list[CodingPlan]] = {}
        #: per lost node, the helpers an in-place repair of a stored stripe reads
        self._planned_helpers = {
            f: tuple(self.repair_read_fractions(f)) for f in range(self.n)
        }

    #: counters land under ``codes.rs.*``
    telemetry_key = "rs"

    @property
    def name(self) -> str:
        return f"RS({self.k},{self.r})"

    @property
    def fault_tolerance(self) -> int:
        """MDS: tolerates any ``r`` erasures."""
        return self.r

    def repair(self, failed: int, shards) -> RepairResult:
        """Rebuild one block from ``k`` survivors (full reads).

        Any lost block — data or parity — is one GF-linear combination of
        any ``k`` survivors (:meth:`repair_coefficients`), so the repair
        is a single one-row plan over the stripe, written where the block
        is stored.  Reads the ``k`` lowest-indexed survivors.

        ``shards`` is either a mapping survivor → block (a fresh block is
        returned) or the stored stripe itself as a ``(data, parity)``
        pair of ``(k, L)``/``(r, L)`` arrays: then every node but
        ``failed`` is a survivor, the lost row is rebuilt in place without
        being read, and ``.block`` is a view of it.
        """
        # a tuple is the stored stripe: testing for it first skips the slow
        # Mapping ABC check
        if type(shards) is not tuple and isinstance(shards, Mapping):
            shards = self._check_shards(shards)
            if failed in shards:
                raise ValueError(f"node {failed} is present in the supplied shards")
            helpers = self._lowest_helpers(shards)
            data, parity = self._stripe_from_shards(shards, helpers)
        else:
            data, parity = self._check_stripe(shards)
            # the planned reads
            helpers = self._planned_helpers.get(failed) or tuple(
                self.repair_read_fractions(failed)
            )
        plan = self._repair_plan(failed, helpers)
        block = data[failed] if failed < self.k else parity[failed - self.k]
        plan.apply_into(data, block[None, :], tail=parity)
        L = block.shape[0]
        if METRICS.enabled:
            METRICS.counter("codes.rs.repair_calls", unit="calls").inc()
            METRICS.counter("codes.rs.gf_mul_bytes", unit="bytes").inc(self.k * L)
        return RepairResult(block=block, bytes_read=dict.fromkeys(helpers, L))

    def _lowest_helpers(self, survivors) -> tuple[int, ...]:
        """The ``k`` lowest-indexed survivors a repair reads."""
        helpers = tuple(sorted(survivors)[: self.k])
        if len(helpers) < self.k:
            raise UnrecoverableError(
                f"{self.name}: {len(helpers)} survivors cannot rebuild a block, "
                f"need k={self.k}"
            )
        return helpers

    def _repair_plan(self, failed: int, helpers: tuple[int, ...]) -> CodingPlan:
        """The ``1 × n`` plan ``lost = Σ cᵢ·node(helpers[i])`` over a stripe.

        Columns of non-helpers (the failed node among them) are zero, so
        those rows are never read.  Compiled on first use from the cached
        :meth:`repair_coefficients` row.
        """
        key = (failed, helpers)
        plan = self._repair_plans.get(key)
        if plan is None:
            row = np.zeros((1, self.n), dtype=self.generator.dtype)
            row[0, list(helpers)] = self.repair_coefficients(failed, helpers)
            plan = self._repair_plans[key] = CodingPlan(row)
        return plan

    def repair_batch(self, failed: int, shards: Mapping[int, np.ndarray]) -> list[RepairResult]:
        """:meth:`repair` of the same node in each stripe of a batch, given
        each survivor's ``(batch, L)`` stack."""
        return self._repair_each(failed, shards)

    # ------------------------------------------------------- streamed repair
    def repair_coefficients(self, failed: int, helpers: Sequence[int]) -> np.ndarray:
        """GF coefficients ``c`` with ``lost = Σ cᵢ · shard(helpers[i])``.

        Any lost block is a fixed GF-linear combination of any ``k``
        survivors: with ``G`` the (n × k) generator, the helper rows form an
        invertible ``k × k`` submatrix ``G_H`` (MDS), so
        ``c = G[failed] · G_H⁻¹``.  This row is the algebra behind both
        :meth:`repair_streamed` and the cluster's hop-by-hop repair
        pipeline, where helper ``i`` contributes the partial product
        ``cᵢ · shardᵢ`` and partials merge by XOR in any order.
        """
        helpers = tuple(helpers)
        if len(helpers) != self.k or len(set(helpers)) != self.k:
            raise ValueError(f"need exactly k={self.k} distinct helpers")
        if failed in helpers or not 0 <= failed < self.n:
            raise ValueError(f"invalid failed node {failed} for helpers {helpers}")
        key = (failed, helpers)
        cached = self._repair_coeff_cache.get(key)
        if cached is None:
            sub = self.generator[np.asarray(helpers)]
            coeffs = matmul(self.generator[failed : failed + 1], inverse(sub))[0]
            cached = self._repair_coeff_cache[key] = coeffs
        return cached

    def repair_streamed(self, failed: int, shards, chunk_size: int = 1 << 16) -> RepairResult:
        """Chunked partial-combination repair: the pipelined path's codec.

        Reads what :meth:`repair` reads, from either form of ``shards`` it
        takes, and folds one helper's partial (its
        :meth:`repair_coefficients` entry times its chunk) at a time into
        the lost block, ``chunk_size`` bytes at a time, as each hop of the
        cluster's repair pipeline does.  The block is :meth:`repair`'s for
        every chunk size.
        """
        if type(shards) is not tuple and isinstance(shards, Mapping):
            shards = self._check_shards(shards)
            if failed in shards:
                raise ValueError(f"node {failed} is present in the supplied shards")
            helpers = tuple(sorted(shards)[: self.k])
        else:
            shards = self._check_stripe(shards)
            helpers = self._planned_helpers.get(failed) or tuple(
                self.repair_read_fractions(failed)
            )
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        plans = self._streamed_plans.get((failed, helpers))
        if plans is None:
            coeffs = self.repair_coefficients(failed, helpers)
            plans = self._streamed_plans[failed, helpers] = [
                CodingPlan(c.reshape(1, 1)) for c in coeffs
            ]
        if METRICS.enabled:
            METRICS.counter("codes.rs.repair_streamed_calls", unit="calls").inc()
        block = self._fold_repair(failed, shards, helpers, plans, chunk_size)
        return RepairResult(block=block, bytes_read=dict.fromkeys(helpers, block.shape[0]))
