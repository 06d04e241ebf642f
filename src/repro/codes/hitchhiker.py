"""Hitchhiker-XOR (Rashmi et al., SIGCOMM'14 — the paper's ref. [5]).

A repair-efficient systematic code built by *piggybacking* a (k+r, k)
Reed–Solomon code: the stripe is split into two substripes ``a`` and ``b``
(sub-packetization 2), and every parity beyond the first carries, on its
``b`` component, the XOR of one group of ``a`` data symbols:

* data node i stores ``(a_i, b_i)``;
* parity 1 stores ``(f_1(a), f_1(b))`` — untouched;
* parity j ∈ [2, r] stores ``(f_j(a), f_j(b) ⊕ g_j)`` with
  ``g_j = ⊕_{i ∈ S_{j−1}} a_i``, the data nodes being partitioned into
  r − 1 near-even groups S_1 … S_{r−1}.

Piggybacking preserves the MDS property (checked exhaustively by the
test suite).  Its payoff is data-node repair bandwidth: to rebuild
node m ∈ S_{j−1},

1. decode substripe ``b`` from the k pure-``b`` symbols (other data nodes
   + parity 1) — that yields ``b_m`` *and* lets us compute ``f_j(b)``;
2. read parity j's ``b`` component and peel off ``g_j``;
3. read ``a_i`` for the other members of S_{j−1}; then
   ``a_m = g_j ⊕ (⊕_{i ≠ m} a_i)``.

Total traffic: (k + |S_{j−1}| + 1) half-blocks ≈ (k + k/(r−1))/2 blocks
versus k whole blocks for plain RS — a ~25–35 % saving, between RS and
MSR on the repair-bandwidth spectrum.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..gf import systematic_rs_parity
from .base import LinearVectorCode, ParameterError, RepairResult
from .rs import ReedSolomonCode

__all__ = ["HitchhikerCode"]


class HitchhikerCode(LinearVectorCode):
    """Hitchhiker-XOR over RS(k, r): sub-packetization 2, MDS, cheaper repair.

    Examples
    --------
    >>> import numpy as np
    >>> hh = HitchhikerCode(k=6, r=3)
    >>> data = np.arange(6 * 8, dtype=np.uint8).reshape(6, 8)
    >>> coded = hh.encode(data)
    >>> res = hh.repair(0, {i: coded[i] for i in range(9) if i != 0})
    >>> bool(np.array_equal(res.block, coded[0]))
    True
    >>> res.total_bytes_read < 6 * 8   # beats RS's k whole blocks
    True
    """

    def __init__(self, k: int, r: int):
        if r < 2:
            raise ParameterError("Hitchhiker needs r >= 2 (one parity to piggyback on)")
        if k < r - 1:
            raise ParameterError(f"need k >= r-1 data nodes to form groups, got k={k}")
        if k + r > 256:
            raise ParameterError(f"({k},{r}) does not fit in GF(2^8)")
        n = k + r
        parity = systematic_rs_parity(k, r)  # f_j = parity[j-1]

        # near-even partition of data nodes into r-1 groups
        groups: list[list[int]] = [[] for _ in range(r - 1)]
        for i in range(k):
            groups[i % (r - 1)].append(i)
        self.groups = groups
        self._group_of = {i: g for g, members in enumerate(groups) for i in members}

        l = 2  # substripes a (plane 0) and b (plane 1)
        gen = np.zeros((n * l, k * l), dtype=parity.dtype)
        gen[: k * l] = np.eye(k * l, dtype=parity.dtype)

        def row(node: int, plane: int) -> int:
            return node * l + plane

        def col(node: int, plane: int) -> int:
            return node * l + plane

        for j in range(r):  # parity node k+j
            for i in range(k):
                gen[row(k + j, 0), col(i, 0)] = parity[j, i]  # f on substripe a
                gen[row(k + j, 1), col(i, 1)] = parity[j, i]  # f on substripe b
            if j >= 1:  # piggyback: XOR of group S_j's `a` symbols
                for i in groups[j - 1]:
                    gen[row(k + j, 1), col(i, 0)] ^= 1

        super().__init__(n=n, k=k, generator=gen, subpacketization=l)
        self._base_rs = ReedSolomonCode(k, r)

    # ------------------------------------------------------------------ identity
    @property
    def name(self) -> str:
        return f"Hitchhiker({self.k},{self.r})"

    @property
    def fault_tolerance(self) -> int:
        """MDS (checked exhaustively by the test suite): any r erasures."""
        return self.r

    def group_members(self, group: int) -> list[int]:
        """Data nodes whose ``a`` symbols parity ``group+2`` piggybacks."""
        return list(self.groups[group])

    # ------------------------------------------------------------------ repair
    def repair_read_fractions(self, failed: int) -> dict[int, float]:
        if failed >= self.k:  # parity repair: generic decode from k data nodes
            return {i: 1.0 for i in range(self.k)}
        group = self._group_of[failed]
        plan: dict[int, float] = {}
        for i in range(self.k):
            if i == failed:
                continue
            # b-half from everyone; group peers also contribute their a-half
            plan[i] = 1.0 if i in self.groups[group] else 0.5
        plan[self.k] = 0.5  # parity 1's b component
        plan[self.k + group + 1] = 0.5  # the piggybacked parity's b component
        return plan

    def repair(self, failed: int, shards: Mapping[int, np.ndarray]) -> RepairResult:
        """Piggyback repair for data nodes; generic decode otherwise."""
        shards = self._check_shards(shards)
        if failed in shards:
            raise ValueError(f"node {failed} is present in the supplied shards")
        wanted = self.repair_read_fractions(failed)
        if failed >= self.k or not set(wanted) <= set(shards):
            return super().repair(failed, shards)

        L = next(iter(shards.values())).shape[0]
        if L % 2:
            raise ValueError(f"block length {L} not a multiple of 2")
        half = L // 2
        group = self._group_of[failed]

        def a_part(node: int) -> np.ndarray:
            return shards[node][:half]

        def b_part(node: int) -> np.ndarray:
            return shards[node][half:]

        # 1) decode substripe b from pure-b symbols: other data + parity 1
        b_shards = {i: b_part(i) for i in range(self.k) if i != failed}
        b_shards[self.k] = b_part(self.k)
        b_full = self._base_rs.decode(b_shards)
        b_m = b_full[failed]

        # 2) peel the piggyback off parity (group+2)'s b component
        pj = self.k + group + 1
        g_j = b_part(pj) ^ b_full[pj]

        # 3) XOR out the surviving group members' a symbols
        a_m = g_j.copy()
        for i in self.groups[group]:
            if i != failed:
                np.bitwise_xor(a_m, a_part(i), out=a_m)

        block = np.concatenate([a_m, b_m])
        bytes_read = {
            node: int(round(fraction * L)) for node, fraction in wanted.items()
        }
        return RepairResult(block=block, bytes_read=bytes_read)
