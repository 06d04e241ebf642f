"""Azure-style Local Reconstruction Code LRC(k, r, z) over GF(2^8).

Layout (paper Fig. 2(b) / Table I notation): ``k`` data nodes split into
``z`` local groups, one XOR local parity per group, plus ``r`` global
Reed–Solomon parities, so ``n = k + z + r``.

The selling point is cheap single-failure repair: a lost data block is
rebuilt from its local group (``k/z`` reads) instead of ``k`` reads.  The
price is extra storage (ρ = (k+r+z)/k) and no bandwidth savings for global
parity loss.  Two consumers sit on top: HACFS (the EH-EC baseline the
paper compares against) pairs a compact LRC(k, 2, 2) with a fast
LRC(k, 2, k/2), and the multi-code policy engine
(:mod:`repro.fusion.adaptation`) holds a single LRC variant as a
first-class family — the middle ground of the δ axis between RS writes
and FR's uncoded repair (see ``docs/codes.md``).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Mapping

import numpy as np

from ..gf import systematic_rs_parity
from ..gf.matrix import independent_rows
from .base import LinearVectorCode, ParameterError, RepairResult

__all__ = ["LocalReconstructionCode"]


class LocalReconstructionCode(LinearVectorCode):
    """LRC(k, r, z): z local XOR parities over contiguous groups + r global RS parities.

    Node order: ``0..k-1`` data, ``k..k+z-1`` local parities,
    ``k+z..k+z+r-1`` global parities.

    Examples
    --------
    >>> import numpy as np
    >>> lrc = LocalReconstructionCode(k=4, r=2, z=2)
    >>> data = np.arange(4 * 4, dtype=np.uint8).reshape(4, 4)
    >>> coded = lrc.encode(data)
    >>> res = lrc.repair(1, {i: coded[i] for i in range(8) if i != 1})
    >>> sorted(res.bytes_read)           # reads only its local group + parity
    [0, 4]
    """

    def __init__(self, k: int, r: int, z: int, layout: str = "contiguous"):
        if k <= 0 or r <= 0 or z <= 0:
            raise ParameterError(f"LRC needs positive k, r, z; got ({k},{r},{z})")
        if k % z != 0:
            raise ParameterError(f"z={z} must divide k={k}")
        if layout not in ("contiguous", "interleaved"):
            raise ParameterError(f"unknown layout {layout!r}")
        if layout == "interleaved" and k % (z * z) != 0:
            raise ParameterError(
                f"interleaved layout (paper Fig. 2(b)) needs z^2 | k, got k={k}, z={z}"
            )
        self.z = z
        self.layout = layout
        self.group_size = k // z
        # interleaved: data node i belongs to group (i // span) % z, with
        # span = k / z^2 — for LRC(8,*,2) this yields the paper's
        # p1 = d1 ⊕ d2 ⊕ d5 ⊕ d6, p2 = d3 ⊕ d4 ⊕ d7 ⊕ d8 pattern.
        self._span = k // (z * z) if layout == "interleaved" else self.group_size
        n = k + z + r
        local = np.zeros((z, k), dtype=np.uint8)
        for i in range(k):
            local[self._group_index(i), i] = 1
        global_parity = systematic_rs_parity(k, r)
        generator = np.concatenate(
            [np.eye(k, dtype=global_parity.dtype), local, global_parity], axis=0
        )
        super().__init__(n=n, k=k, generator=generator, subpacketization=1)
        self.r = r  # LinearVectorCode sets r = n - k = r + z; keep the paper's r
        self.num_local = z
        self.num_global = r

    def _group_index(self, data_node: int) -> int:
        if self.layout == "interleaved":
            return (data_node // self._span) % self.z
        return data_node // self.group_size

    @property
    def name(self) -> str:
        return f"LRC({self.k},{self.num_global},{self.z})"

    @property
    def local_parity_nodes(self) -> range:
        """Indices of the z local XOR parities."""
        return range(self.k, self.k + self.z)

    @property
    def global_parity_nodes(self) -> range:
        """Indices of the r global RS parities."""
        return range(self.k + self.z, self.n)

    @property
    def storage_overhead(self) -> float:
        return self.n / self.k

    def group_of(self, data_node: int) -> int:
        """Local group index of a data node."""
        if not 0 <= data_node < self.k:
            raise ValueError(f"{data_node} is not a data node")
        return self._group_index(data_node)

    def group_members(self, group: int) -> list[int]:
        """Data node indices in a local group."""
        return [i for i in range(self.k) if self._group_index(i) == group]

    @cached_property
    def fault_tolerance(self) -> int:
        """Largest t such that *every* t-erasure pattern is decodable.

        Computed exactly at first use (the codes used in the paper are
        small); Azure-style LRCs typically achieve ``r + 1``.
        """
        for t in range(1, self.num_global + self.z + 1):
            for erased in itertools.combinations(range(self.n), t):
                alive = [i for i in range(self.n) if i not in erased]
                if len(independent_rows(self.generator[alive])) < self.k:
                    return t - 1
        return self.num_global + self.z

    # ------------------------------------------------------------------ repair
    def repair_read_fractions(self, failed: int) -> dict[int, float]:
        if failed < self.k:  # data: local group (peers + local parity)
            group = self.group_of(failed)
            helpers = [i for i in self.group_members(group) if i != failed]
            helpers.append(self.k + group)
            return {i: 1.0 for i in helpers}
        if failed in self.local_parity_nodes:  # local parity: its data group
            group = failed - self.k
            return {i: 1.0 for i in self.group_members(group)}
        return {i: 1.0 for i in range(self.k)}  # global parity: all data

    def repair(self, failed: int, shards: Mapping[int, np.ndarray]) -> RepairResult:
        """Local repair when possible; falls back to full decode otherwise."""
        shards = self._check_shards(shards)
        if failed in shards:
            raise ValueError(f"node {failed} is present in the supplied shards")
        wanted = self.repair_read_fractions(failed)
        if set(wanted) <= set(shards):
            if failed < self.k or failed in self.local_parity_nodes:
                # XOR of the local group rebuilds either a member or its parity.
                block = np.zeros_like(next(iter(shards.values())))
                for i in wanted:
                    np.bitwise_xor(block, shards[i], out=block)
                bytes_read = {i: shards[i].shape[0] for i in wanted}
                return RepairResult(block=block, bytes_read=bytes_read)
            # global parity: re-encode from the k data blocks
            data = np.stack([shards[i] for i in range(self.k)])
            full = self.encode(data)
            bytes_read = {i: shards[i].shape[0] for i in wanted}
            return RepairResult(block=full[failed], bytes_read=bytes_read)
        return super().repair(failed, shards)
