"""The EC-Fusion framework: code selection + adaptation + transformation.

:class:`ECFusion` is the functional (data-carrying) embodiment of the
paper's Fig. 5 — it stores stripes in whichever of RS(k, r) or
MSR(2r, r, r, r²) the :class:`~repro.fusion.adaptation.AdaptiveSelector`
currently assigns, executes conversions through the intermediary-parity
:class:`~repro.fusion.transform.FusionTransformer`, and accounts every
byte the conversions and repairs move.

The cluster simulator (:mod:`repro.cluster`) uses the same selector and
cost accounting without materialising data; this class is the
correctness-bearing reference used by the examples and tests.

Buffer ownership
----------------
The store owns every stripe's bytes: :meth:`ECFusion.write` copies the
caller's data into the stripe's own ``(k, L)`` buffer (in the kernel call
that computes the parity from the same reads; buffers of 1 MiB or more
start on a cache line, so the kernel can stream them), and from then on
data blocks never move — parity is computed where it is stored, a lost
block is rebuilt in its own row, and a conversion computes the new parity
set *aside* and swaps it in only once it is complete (an aborted
conversion leaves the stripe exactly as it was).  :meth:`ECFusion.read`
and :meth:`ECFusion.read_stripe` return views of that buffer, valid until
the stripe's next write, recovery or conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..gf import as_symbols
from ..gf.native import STREAM_BYTES, aligned_empty
from ..telemetry import METRICS
from .adaptation import AdaptiveSelector, CodeKind, Conversion
from .costmodel import CostModel, SystemProfile
from .queues import CachePolicy
from .transform import ChunkUnavailable, FusionTransformer, StripeStore, TransformCost

__all__ = ["RecoveryReport", "ECFusion"]


@dataclass
class RecoveryReport:
    """What one recovery did: which code served it and how much it read."""

    stripe: Hashable
    block: int
    code: CodeKind
    bytes_read: int
    conversions: list[Conversion] = field(default_factory=list)


class _LostGroup:
    """The fault hook a stripe's own conversion runs under when it recovers
    a data block: the block's group reads as lost, so RS → MSR takes its
    eq. (3) failover and never reads the row being rebuilt."""

    __slots__ = ("group",)

    def __init__(self, group: int):
        self.group = group

    def __call__(self, phase: str, group: int) -> None:
        if phase == "data" and group == self.group:
            raise ChunkUnavailable(phase, group)


class ECFusion:
    """Hybrid RS/MSR store with adaptive per-stripe code selection.

    Examples
    --------
    >>> import numpy as np
    >>> fusion = ECFusion(k=4, r=2)   # default profile: η(4,2) ≈ 3.5
    >>> data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
    >>> fusion.write("stripe0", data)
    []
    >>> fusion.code_of("stripe0")
    <CodeKind.RS: 'rs'>
    >>> rep = fusion.recover("stripe0", 1)   # first failure flips it to MSR
    >>> rep.code
    <CodeKind.MSR: 'msr'>
    """

    def __init__(
        self,
        k: int,
        r: int,
        profile: SystemProfile | None = None,
        queue_capacity: int = 1024,
        policy: CachePolicy = CachePolicy.LRU,
        margin: float = 0.0,
    ):
        profile = profile or SystemProfile()
        self.k, self.r = k, r
        self.transformer = FusionTransformer(k, r)
        self.rs = self.transformer.rs
        self.msr = self.transformer.msr
        self._unit = self.msr.subpacketization  # block lengths are multiples of it
        self.cost_model = CostModel(k, r, profile)
        self.selector = AdaptiveSelector(
            self.cost_model, queue_capacity=queue_capacity, policy=policy, margin=margin
        )
        self._stripes: dict[Hashable, StripeStore] = {}
        self.transform_cost = TransformCost()
        self.repair_bytes_read = 0
        # a fault-free RS → MSR never reads the last group: no hook for it
        self._lost_groups = {g: _LostGroup(g) for g in range(self.transformer.q - 1)}

    # -- helpers ------------------------------------------------------------
    def code_of(self, stripe: Hashable) -> CodeKind:
        """The code a stripe is (or would be) stored in."""
        store = self._stripes.get(stripe)
        return store.kind if store else self.selector.code_of(stripe)

    def _locate(self, stripe: Hashable) -> StripeStore:
        store = self._stripes.get(stripe)
        if store is None:
            raise KeyError(f"unknown stripe {stripe!r}")
        return store

    # -- application path -------------------------------------------------------
    def write(self, stripe: Hashable, data: np.ndarray) -> list[Conversion]:
        """Full-stripe write (HDFS semantics: files are write-once).

        The adaptation rule may first flip the stripe's flag to RS; the
        stripe is then encoded directly in its assigned code, so a
        conversion triggered by the write itself costs nothing extra.

        ``data`` is copied into the stripe's own buffer — the caller's
        array is not kept.  Overwriting a stripe reuses that buffer and,
        when the code is unchanged, its parity buffer.
        """
        data = as_symbols(data, "data")
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ValueError(f"expected ({self.k}, L) data blocks, got {data.shape}")
        if data.shape[1] % self._unit:
            raise ValueError(f"block length must be a multiple of {self._unit}")
        if METRICS.enabled:
            METRICS.counter("fusion.store.writes", unit="stripes").inc()
        conversions = self.selector.on_write(stripe)
        if conversions:
            # idle-expiry may revert *other* stripes; the written stripe itself
            # is re-encoded below, so its own flip needs no transformation
            self._apply_conversions([c for c in conversions if c.stripe != stripe])
        kind = self.selector.code_of(stripe)
        r = self.r
        # the kernel streams its output into buffers this large: start them on
        # a cache line (a smaller one is a plain np.empty, one frame fewer)
        big = data.nbytes >= STREAM_BYTES
        store = self._stripes.get(stripe)
        if store is None or store.data.shape != data.shape:
            buf = aligned_empty(data.shape) if big else np.empty(data.shape, np.uint8)
            store = self._stripes[stripe] = StripeStore(kind, buf, [])
        sets = 1 if kind is CodeKind.RS else self.transformer.q
        store.kind = kind
        parity = store.parity
        if len(parity) != sets:
            parity = store.parity = parity[:sets]
            while len(parity) < sets:
                shape = (r, data.shape[1])
                parity.append(aligned_empty(shape) if big else np.empty(shape, np.uint8))
        # one kernel call per code instance copies its data rows into the
        # stripe and computes their parity from the same reads
        if kind is CodeKind.RS:
            self.rs.encode(data, out=(store.data, parity[0]))
        else:
            for g, group_parity in enumerate(parity):
                rows = slice(g * r, (g + 1) * r)
                self.msr.encode(data[rows], out=(store.data[rows], group_parity))
        return conversions

    def read(self, stripe: Hashable, block: int) -> np.ndarray:
        """Read one data block (always available systematically).

        Returns a view of the stripe's buffer, valid until the stripe's
        next write, recovery or conversion — copy it to keep it.
        """
        if not 0 <= block < self.k:
            raise ValueError(f"data block index {block} out of range")
        store = self._locate(stripe)
        if METRICS.enabled:
            METRICS.counter("fusion.store.reads", unit="blocks").inc()
        conversions = self.selector.on_read(stripe)
        if conversions:
            self._apply_conversions(conversions)
        return store.data[block]

    def read_stripe(self, stripe: Hashable) -> np.ndarray:
        """All k data blocks of a stripe, shape (k, L).

        A view of the stripe's buffer in either code, with the validity of
        :meth:`read`; a conversion leaves the memory it points at alone.
        """
        return self._locate(stripe).data[:]

    # -- recovery path -------------------------------------------------------------
    def _recover(
        self,
        stripe: Hashable,
        index: int,
        parity: bool = False,
        chunk_size: int | None = None,
    ) -> RecoveryReport:
        """One recovery under the adaptive policy: convert, then repair.

        The Queue2 insertion happens first (Algorithm 1), so a stripe may
        convert to MSR *before* the repair proper — mirroring the paper's
        rule that recovery-prone blocks should already sit in the
        repair-friendly code for subsequent failures; that conversion
        derives a lost data block's group (the eq. (3) failover), so it
        never reads the row being rebuilt.  A ``parity`` index addresses
        the layout current after it, so it is checked here.  The codec
        rebuilds the node in its stored row; ``chunk_size`` selects the
        streamed (partial-combination) codec.
        """
        conversions = self.selector.on_recovery(stripe)
        if conversions:
            lost = None if parity else self._lost_groups.get(index // self.r)
            self._apply_conversions(conversions, {stripe: lost})
        store = self._stripes.get(stripe)
        if store is None:
            raise KeyError(f"unknown stripe {stripe!r}")
        if parity:
            if not 0 <= index < store.parity_blocks:
                raise ValueError(
                    f"{store.kind.name}-mode parity index {index} out of range"
                )
            index += self.k
        # the codec, the lost node in its codeword, and that codeword's rows
        # as views of the stripe's buffers: the whole RS stripe, or the
        # node's MSR group (whose data rows run short when it is padded)
        if store.kind is CodeKind.RS:
            code, node, data, par = self.rs, index, store.data, store.parity[0]
        else:
            r = self.r
            if index < self.k:
                g, node = divmod(index, r)
            else:
                g, x = divmod(index - self.k, r)
                node = r + x
            code, data, par = self.msr, store.data[g * r : (g + 1) * r], store.parity[g]
        if chunk_size is None:
            res = code.repair(node, (data, par))
        else:
            res = code.repair_streamed(node, (data, par), chunk_size=chunk_size)
        bytes_read = sum(res.bytes_read.values())
        self.repair_bytes_read += bytes_read
        if METRICS.enabled:
            METRICS.counter("fusion.store.recoveries", unit="blocks").inc()
            METRICS.counter("fusion.store.repair_bytes_read", unit="bytes").inc(
                bytes_read
            )
        return RecoveryReport(
            stripe=stripe,
            block=index,
            code=store.kind,
            bytes_read=bytes_read,
            conversions=conversions,
        )

    def recover(self, stripe: Hashable, block: int) -> RecoveryReport:
        """Reconstruct one lost data block under the adaptive policy.

        The block is rebuilt in its own row of the stripe's buffer from
        the surviving rows; whatever the lost row held is never read.
        """
        if not 0 <= block < self.k:
            raise ValueError(f"data block index {block} out of range")
        return self._recover(stripe, block)

    def recover_streamed(
        self, stripe: Hashable, block: int, chunk_size: int = 1 << 16
    ) -> RecoveryReport:
        """Reconstruct one lost data block via chunked partial combinations.

        The functional twin of the cluster's pipelined repair
        (:mod:`repro.cluster.pipeline`): the same adaptive policy flow as
        :meth:`recover`, but the codec work runs through
        ``repair_streamed`` — helper-by-helper partial sums folded one
        ``chunk_size``-byte output chunk at a time, exactly the partials a
        hop-by-hop repair pipeline would stream.  The partials are folded
        into the lost row where it is stored; the block, and the bytes
        read, are :meth:`recover`'s for every chunk size (GF sums commute).
        """
        if not 0 <= block < self.k:
            raise ValueError(f"data block index {block} out of range")
        return self._recover(stripe, block, chunk_size=chunk_size)

    def recover_parity(self, stripe: Hashable, index: int) -> RecoveryReport:
        """Reconstruct one lost parity block, in place.

        ``index`` addresses the parity in the stripe's *current* layout:
        ``0..r-1`` in RS mode, ``0..q·r-1`` (group-major) in MSR mode.
        Parity loss counts as a recovery event for Algorithm 1 exactly
        like data loss — the stripe is evidently failure-prone.
        """
        return self._recover(stripe, index, parity=True)

    # -- conversions ----------------------------------------------------------------
    def _apply_conversions(self, conversions: list[Conversion], hooks: dict | None = None) -> None:
        """Run the selector's conversions, a stripe in ``hooks`` under its
        fault hook."""
        for conv in conversions:
            store = self._stripes.get(conv.stripe)
            if store is not None:
                hook = hooks.get(conv.stripe) if hooks else None
                self.transform_cost += self.transformer.convert(store, conv.target, hook)

    # -- lifecycle ---------------------------------------------------------------------
    def delete(self, stripe: Hashable) -> None:
        """Remove a stripe: frees its blocks and forgets its policy state.

        Deleting clears the stripe from both tracking queues without
        counting as an eviction, so Algorithm 1's trigger 3 never fires
        for a stripe that no longer exists.
        """
        if stripe not in self._stripes:
            raise KeyError(f"unknown stripe {stripe!r}")
        del self._stripes[stripe]
        self.selector.forget(stripe)

    def __contains__(self, stripe: Hashable) -> bool:
        return stripe in self._stripes

    def __len__(self) -> int:
        return len(self._stripes)

    # -- reporting ---------------------------------------------------------------------
    def storage_overhead(self) -> float:
        """Current average ρ = stored blocks / data blocks across stripes."""
        if not self._stripes:
            return (self.k + self.r) / self.k
        total = sum((self.k + s.parity_blocks) / self.k for s in self._stripes.values())
        return total / len(self._stripes)

    def stats(self) -> dict[str, float]:
        """Selector counters plus transformation/repair traffic."""
        return {
            **self.selector.stats(),
            "stripes": len(self._stripes),
            "storage_overhead": self.storage_overhead(),
            "transform_blocks_read": self.transform_cost.blocks_read,
            "transform_blocks_written": self.transform_cost.blocks_written,
            "repair_bytes_read": self.repair_bytes_read,
        }
