"""Fractional-repetition code FR(k, r, ρ) — uncoded repair by replication.

An HFR-style construction (PAPERS.md: "HFR Code", arXiv:1509.03800): the
stripe is split into θ distinct *chunks*, an MDS precode adds coded chunks,
and every chunk is stored on exactly ρ distinct nodes (a ρ-regular
replication graph).  Repairing a failed node is then *uncoded* — each of
its chunks is copied verbatim from a surviving replica, no GF arithmetic,
no decode matrix, and exactly as many bytes read as were lost.  That is
the cheapest repair any code can offer; the price is replication-grade
storage (ρ · sub-chunks everywhere, so ρ ≈ n/k ≥ 2).

Construction used here (DRESS-code layout specialised to the repo's
``LinearVectorCode`` machinery):

* sub-packetization ``l = ρ``: each node stores ``l`` sub-chunks of
  ``L / l`` bytes, so the n·l storage slots hold ``θ = n·l/ρ = n`` distinct
  chunks, each ρ times;
* the first ``B = k·l`` chunks are the data sub-chunks themselves; the
  remaining ``θ − B`` chunks are parities of a systematic RS *precode* over
  the data sub-chunks (θ = B degenerates to pure ρ-way replication);
* nodes ``0..k-1`` hold the primary data copies in order (systematic
  layout); the replica copies fill nodes ``k..n-1`` by a deterministic
  greedy that always picks the emptiest node not already holding the
  chunk — copies of one chunk land on distinct nodes, and the placement is
  a pure function of (k, r, ρ).

Single-node repair is always uncoded (every chunk has ρ ≥ 2 copies on
distinct nodes); multi-failure decode falls back to the generic linear
machinery through the precode.  The policy engine in
:mod:`repro.fusion.adaptation` picks FR for recovery-dominated stripes
when storage is cheap — see ``docs/codes.md``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Mapping

import numpy as np

from ..gf import systematic_rs_parity
from ..gf.matrix import independent_rows
from ..telemetry import METRICS
from .base import LinearVectorCode, ParameterError, RepairResult

__all__ = ["FractionalRepetitionCode"]


class FractionalRepetitionCode(LinearVectorCode):
    """FR(k, r, ρ): every chunk replicated ρ times; repair is a copy.

    Parameters
    ----------
    k, r:
        Data / extra node counts (``n = k + r``).  Replication needs room:
        ``n ≥ ρ·k`` (so ρ = 2 requires r ≥ k).
    rho:
        Repetition degree ρ ≥ 2 — copies per chunk, and also the
        sub-packetization ``l``.

    Examples
    --------
    >>> import numpy as np
    >>> fr = FractionalRepetitionCode(k=4, r=5)
    >>> data = np.arange(4 * 6, dtype=np.uint8).reshape(4, 6)
    >>> coded = fr.encode(data)
    >>> res = fr.repair(2, {i: coded[i] for i in range(9) if i != 2})
    >>> bool(np.array_equal(res.block, coded[2]))
    True
    >>> res.total_bytes_read                 # uncoded: reads what it lost
    6
    """

    #: counters land under ``codes.fr.*``
    telemetry_key = "fr"

    def __init__(self, k: int, r: int, rho: int = 2, w: int = 8):
        if k <= 0 or r <= 0:
            raise ParameterError(f"FR needs k > 0 and r > 0, got k={k}, r={r}")
        if rho < 2:
            raise ParameterError(f"repetition degree rho must be >= 2, got {rho}")
        n = k + r
        if n < rho * k:
            raise ParameterError(
                f"FR({k},{r},x{rho}) cannot replicate every chunk {rho} times: "
                f"needs n >= rho*k ({n} < {rho * k})"
            )
        l = rho
        num_chunks = n * l // rho  # == n for l == rho
        num_data_chunks = k * l
        if num_chunks > (1 << w):
            raise ParameterError(f"FR({k},{r},x{rho}) precode does not fit GF(2^{w})")
        self.rho = rho
        self.num_chunks = num_chunks
        self.num_data_chunks = num_data_chunks
        precode_parity = (
            systematic_rs_parity(num_data_chunks, num_chunks - num_data_chunks, w=w)
            if num_chunks > num_data_chunks
            else np.zeros((0, num_data_chunks), dtype=np.uint8)
        )
        self.node_chunks = self._place(n, k, l, num_chunks, num_data_chunks)
        rows = np.zeros((n * l, num_data_chunks), dtype=precode_parity.dtype)
        for node, chunks in enumerate(self.node_chunks):
            for plane, chunk in enumerate(chunks):
                if chunk < num_data_chunks:
                    rows[node * l + plane, chunk] = 1
                else:
                    rows[node * l + plane] = precode_parity[chunk - num_data_chunks]
        super().__init__(n=n, k=k, generator=rows, subpacketization=l, w=w)
        #: chunk id -> [(node, plane), ...] sorted by node; ρ entries each
        self.chunk_locations: dict[int, list[tuple[int, int]]] = {
            c: [] for c in range(num_chunks)
        }
        for node, chunks in enumerate(self.node_chunks):
            for plane, chunk in enumerate(chunks):
                self.chunk_locations[chunk].append((node, plane))
        for c, locs in self.chunk_locations.items():
            holders = [node for node, _ in locs]
            if len(locs) != rho or len(set(holders)) != rho:
                raise ParameterError(
                    f"FR({k},{r},x{rho}): chunk {c} placement degenerate ({locs})"
                )

    @staticmethod
    def _place(
        n: int, k: int, l: int, num_chunks: int, num_data_chunks: int
    ) -> list[list[int]]:
        """ρ-regular chunk placement: primaries in order, replicas greedy."""
        rho = l
        node_chunks: list[list[int]] = [
            list(range(i * l, (i + 1) * l)) for i in range(k)
        ]
        node_chunks += [[] for _ in range(n - k)]
        copies = [
            c
            for round_ in range(rho - 1)
            for c in range(num_data_chunks)
        ]
        copies += [
            c
            for round_ in range(rho)
            for c in range(num_data_chunks, num_chunks)
        ]
        for c in copies:
            candidates = [
                j
                for j in range(k, n)
                if len(node_chunks[j]) < l and c not in node_chunks[j]
            ]
            if not candidates:
                raise ParameterError(
                    f"FR placement stuck: no conflict-free node left for chunk {c}"
                )
            best = min(candidates, key=lambda j: (len(node_chunks[j]), j))
            node_chunks[best].append(c)
        return node_chunks

    @property
    def name(self) -> str:
        return f"FR({self.k},{self.r},x{self.rho})"

    @property
    def precoded(self) -> bool:
        """True when coded chunks exist (θ > B); False = pure replication."""
        return self.num_chunks > self.num_data_chunks

    @cached_property
    def fault_tolerance(self) -> int:
        """Largest t such that *every* t-erasure pattern is decodable.

        Exact brute force over erasure patterns (the codes in play are
        small).  Replication alone guarantees ρ − 1; the MDS precode
        usually buys more.
        """
        kl = self.k * self.subpacketization
        for t in range(1, self.n - self.k + 1):
            for erased in itertools.combinations(range(self.n), t):
                alive = [i for i in range(self.n) if i not in erased]
                rows = [s for node in alive for s in self.node_symbols(node)]
                if len(independent_rows(self.generator[rows], w=self.w)) < kl:
                    return t - 1
        return self.n - self.k

    # ------------------------------------------------------------------ repair
    def _copy_sources(self, failed: int) -> list[tuple[int, int] | None]:
        """Preferred (helper, plane) per lost sub-chunk, all-alive layout."""
        out: list[tuple[int, int] | None] = []
        for chunk in self.node_chunks[failed]:
            replicas = [
                (node, plane)
                for node, plane in self.chunk_locations[chunk]
                if node != failed
            ]
            out.append(min(replicas) if replicas else None)
        return out

    def repair_read_fractions(self, failed: int) -> dict[int, float]:
        """Uncoded repair: 1/l of each replica holder per lost sub-chunk."""
        fractions: dict[int, float] = {}
        l = self.subpacketization
        for source in self._copy_sources(failed):
            node, _ = source  # every chunk has ρ ≥ 2 copies, never None
            fractions[node] = fractions.get(node, 0.0) + 1.0 / l
        return fractions

    def repair(self, failed: int, shards: Mapping[int, np.ndarray]) -> RepairResult:
        """Copy each lost sub-chunk from a surviving replica (no GF math).

        Falls back to the generic decode path only when *every* replica of
        some lost chunk is also missing from ``shards``.
        """
        shards = self._check_shards(shards)
        if failed in shards:
            raise ValueError(f"node {failed} is present in the supplied shards")
        l = self.subpacketization
        sources = []
        for chunk in self.node_chunks[failed]:
            live = [
                (node, plane)
                for node, plane in self.chunk_locations[chunk]
                if node != failed and node in shards
            ]
            if not live:
                return super().repair(failed, shards)  # replica also lost
            sources.append(min(live))
        if METRICS.enabled:
            METRICS.counter("codes.fr.repair_calls", unit="calls").inc()
        some = next(iter(shards.values()))
        L = some.shape[0]
        if L % l:
            raise ValueError(f"block length {L} not a multiple of l={l}")
        sub = L // l
        block = np.empty(L, dtype=some.dtype)
        bytes_read: dict[int, int] = {}
        for plane, (node, src_plane) in enumerate(sources):
            block[plane * sub : (plane + 1) * sub] = shards[node][
                src_plane * sub : (src_plane + 1) * sub
            ]
            bytes_read[node] = bytes_read.get(node, 0) + sub
        return RepairResult(block=block, bytes_read=bytes_read)

