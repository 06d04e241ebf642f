"""Minimum-Storage-Regenerating code MSR(n, k, r, l) over GF(2^8).

This is a coupled-layer ("Clay" / Ye–Barg) construction, the same family
the EC-Fusion paper builds on (its refs [16] Clay codes and [20] Ye–Barg).

Geometry
--------
With ``s = r = n - k`` and ``m = n / s`` the ``n`` nodes form an s×m grid:
node ``i`` has coordinates ``(x, y) = (i % s, i // s)``.  Sub-packetization
is ``l = s**m``; each node block splits into ``l`` planes, indexed by
``z`` whose base-``s`` digits are ``(z_0, …, z_{m-1})``.

Two symbol spaces are related by an invertible *pairwise coupling*:

* **uncoupled** symbols ``U[i, z]`` — for every fixed plane ``z`` the
  ``n`` symbols ``U[·, z]`` form a codeword of a scalar MDS (n, k) code
  with parity-check ``H_s``;
* **coupled** symbols ``C[i, z]`` — what nodes actually store.  When
  ``x == z_y`` the symbol is uncoupled (``C = U``); otherwise the pair
  ``{(x, y, z), (z_y, y, z[y→x])}`` mixes through ``[[1, γ], [γ, 1]]``
  (ordering the pair by the ``x`` coordinate), ``γ² ≠ 1``.

Properties (verified at construction / in the test suite)
---------------------------------------------------------
* MDS: any ``k`` of ``n`` blocks recover the stripe.
* Optimal repair: one failed node is rebuilt by reading only the ``l/s``
  planes ``{z : z_{y0} = x0}`` from *each* of the ``n−1`` survivors —
  ``(n−1)/r`` block-equivalents of traffic versus ``k`` for RS.
"""

from __future__ import annotations

import itertools
from typing import Mapping

import numpy as np

from ..gf import (
    GF,
    CodingPlan,
    apply_to_blocks_naive,
    cauchy,
    inverse,
    is_invertible,
    solve,
)
from ..telemetry import METRICS
from .base import LinearVectorCode, ParameterError, RepairResult, UnrecoverableError

__all__ = ["MSRCode"]


class MSRCode(LinearVectorCode):
    """Coupled-layer MSR code with optimal single-node repair bandwidth.

    Parameters
    ----------
    n, k:
        Total and data node counts; ``r = n - k`` must divide ``n``.
    gamma:
        Coupling coefficient; ``None`` searches from 2 upward until the
        verification policy passes.
    verify:
        MDS verification at construction: ``"full"`` checks every
        ``r``-erasure pattern, ``"sample"`` checks a random sample,
        ``"off"`` trusts the construction, ``"auto"`` (default) picks
        ``"full"`` for small codes and ``"sample"`` otherwise.

    Examples
    --------
    >>> import numpy as np
    >>> msr = MSRCode(n=4, k=2)          # s=2, m=2, l=4
    >>> msr.subpacketization
    4
    >>> data = np.arange(2 * 8, dtype=np.uint8).reshape(2, 8)
    >>> coded = msr.encode(data)
    >>> res = msr.repair(0, {i: coded[i] for i in range(1, 4)})
    >>> bool(np.array_equal(res.block, coded[0]))
    True
    """

    def __init__(
        self,
        n: int,
        k: int,
        gamma: int | None = None,
        verify: str = "auto",
        rng_seed: int = 0x5EED,
    ):
        r = n - k
        if r <= 0 or k <= 0:
            raise ParameterError(f"need n > k > 0, got n={n}, k={k}")
        if n % r != 0:
            raise ParameterError(f"coupled-layer MSR needs r | n, got n={n}, r={r}")
        m = n // r
        if m < 2:
            raise ParameterError(f"need at least two node groups (n/r >= 2), got {m}")
        if verify not in ("auto", "full", "sample", "off"):
            raise ParameterError(f"unknown verify policy {verify!r}")
        self._gf = GF.get()
        self.s = r
        self.m = m
        l = r**m

        h_scalar = np.concatenate([cauchy(r, k), np.eye(r, dtype=np.uint8)], axis=1)

        candidates = [gamma] if gamma is not None else [g for g in range(2, self._gf.order)]
        rng = np.random.default_rng(rng_seed)
        last_err: Exception | None = None
        for g in candidates:
            if g in (0, 1):
                raise ParameterError("gamma must satisfy gamma not in {0, 1}")
            try:
                generator = self._build_generator(n, k, r, m, l, g, h_scalar)
            except np.linalg.LinAlgError as exc:
                last_err = exc
                continue
            # the parity plan's factors read both
            self.gamma = g
            self.h_scalar = h_scalar
            super().__init__(n=n, k=k, generator=generator, subpacketization=l)
            self._prepare_repair_plans()
            if self._verify_mds(verify, rng):
                return
            last_err = UnrecoverableError(f"gamma={g} fails the MDS check")
        raise ParameterError(
            f"no valid coupling coefficient found for MSR({n},{k}): {last_err}"
        )

    #: counters land under ``codes.msr.*``
    telemetry_key = "msr"

    # ------------------------------------------------------------------ layout
    @property
    def name(self) -> str:
        return f"MSR({self.n},{self.k},{self.r},{self.subpacketization})"

    @property
    def fault_tolerance(self) -> int:
        """MDS: tolerates any ``r`` erasures."""
        return self.r

    def _coords(self, node: int) -> tuple[int, int]:
        """Node index -> (x, y) grid coordinates."""
        return node % self.s, node // self.s

    def _node(self, x: int, y: int) -> int:
        return y * self.s + x

    def _digit(self, z: int, y: int) -> int:
        """Base-s digit ``z_y`` of plane index ``z``."""
        return (z // self.s**y) % self.s

    def _set_digit(self, z: int, y: int, v: int) -> int:
        """Plane index with digit ``y`` replaced by ``v``."""
        old = self._digit(z, y)
        return z + (v - old) * self.s**y

    def _partner(self, node: int, z: int) -> tuple[int, int] | None:
        """Coupling partner (node', z') of symbol (node, z), or None if fixed."""
        x, y = self._coords(node)
        zy = self._digit(z, y)
        if x == zy:
            return None
        return self._node(zy, y), self._set_digit(z, y, x)

    # --------------------------------------------------------------- construction
    def _coupling_coeffs(self, gamma: int) -> tuple[np.ndarray, np.ndarray]:
        """The pair mixing matrix M = [[1, γ], [γ, 1]] and its inverse."""
        gf = GF.get()
        M = np.array([[1, gamma], [gamma, 1]], dtype=gf.dtype)
        return M, inverse(M)

    def _build_generator(
        self,
        n: int,
        k: int,
        r: int,
        m: int,
        l: int,
        gamma: int,
        h_scalar: np.ndarray,
    ) -> np.ndarray:
        """Assemble the systematic (n·l × k·l) generator for coupling γ."""
        gf = GF.get()
        self.s = r  # needed by helpers before super().__init__
        self.m = m
        _, Minv = self._coupling_coeffs(gamma)

        # Constraint matrix A (r·l × n·l) on *coupled* symbols:
        # row (t, z):  sum_i H_s[t, i] · U[i, z] = 0, with U expressed in C.
        nl, rl = n * l, r * l
        A = np.zeros((rl, nl), dtype=gf.dtype)
        row_base = np.arange(r) * l
        for i in range(n):
            hcol = h_scalar[:, i]
            x, _y = i % r, i // r
            for z in range(l):
                rows = row_base + z
                part = self._partner_static(i, z, r, m)
                if part is None:
                    A[rows, i * l + z] = gf.add(A[rows, i * l + z], hcol)
                else:
                    j, z2 = part
                    xj = j % r
                    if x < xj:  # this symbol is the pair's "a" element
                        ca, cb = Minv[0, 0], Minv[0, 1]
                    else:
                        ca, cb = Minv[1, 1], Minv[1, 0]
                    A[rows, i * l + z] = gf.add(A[rows, i * l + z], gf.mul(hcol, int(ca)))
                    A[rows, j * l + z2] = gf.add(A[rows, j * l + z2], gf.mul(hcol, int(cb)))

        kl = k * l
        A_data, A_parity = A[:, :kl], A[:, kl:]
        enc = solve(A_parity, A_data)  # raises LinAlgError if singular
        self._constraints = A
        return np.concatenate([np.eye(kl, dtype=np.uint8), enc], axis=0)

    def _coupling_factor(self, first: int, count: int, uncouple: bool) -> np.ndarray:
        """The pairwise coupling (``uncouple``: its inverse) of nodes
        ``first .. first+count−1``, a whole number of grid columns, as a
        ``(count·l)``-square matrix over their symbols (``node·l + z``).

        Built from the coupling structure at once: every symbol is fixed
        (coefficient 1) or mixes with its partner through the pair's row of
        ``[[1, γ], [γ, 1]]`` (or its inverse), ordered by the ``x``
        coordinate as in :meth:`_build_generator`.
        """
        s, l = self.s, self.subpacketization
        node = np.repeat(np.arange(first, first + count), l)
        z = np.tile(np.arange(l), count)
        x, y = node % s, node // s
        zy = z // s**y % s
        paired = x != zy
        partner = (y * s + zy - first) * l + z + (x - zy) * s**y
        M, Minv = self._coupling_coeffs(self.gamma)
        c = Minv if uncouple else M
        first_of_pair = x < zy
        rows = np.arange(count * l)
        f = np.zeros((count * l, count * l), dtype=np.uint8)
        f[rows, rows] = np.where(paired, np.where(first_of_pair, c[0, 0], c[1, 1]), 1)
        f[rows[paired], partner[paired]] = np.where(first_of_pair, c[0, 1], c[1, 0])[paired]
        return f

    def _parity_factors(self, data_nodes: int) -> list[np.ndarray]:
        """The encoder as the coupled-layer chain: uncouple the data symbols,
        one scalar MDS encode per plane (``U_parity = H_s[:, :k]·U_data``),
        recouple the parity symbols — 153 multiply-accumulates per symbol
        column at (6, 3) where the dense generator rows have 225.  Virtual
        data nodes of a shortened stripe drop their columns."""
        l = self.subpacketization
        return [
            self._coupling_factor(0, self.k, uncouple=True)[:, : data_nodes * l],
            np.kron(self.h_scalar[:, : self.k], np.eye(l, dtype=np.uint8)),
            self._coupling_factor(self.k, self.r, uncouple=False),
        ]

    def data_from_parity_factors(self) -> list[np.ndarray]:
        """For ``k == r``: the inverse encoder — data symbols from parity
        symbols alone — as the coupled-layer chain: uncouple the parity
        symbols, invert the scalar MDS map per plane, recouple the data
        symbols."""
        if self.k != self.r:
            raise ParameterError(f"{self.name}: parity determines data only when k == r")
        l = self.subpacketization
        return [
            self._coupling_factor(self.k, self.r, uncouple=True),
            np.kron(inverse(self.h_scalar[:, : self.k]), np.eye(l, dtype=np.uint8)),
            self._coupling_factor(0, self.k, uncouple=False),
        ]

    def _partner_static(self, node: int, z: int, s: int, m: int) -> tuple[int, int] | None:
        """Partner lookup usable before ``self`` is fully initialised."""
        x, y = node % s, node // s
        zy = (z // s**y) % s
        if x == zy:
            return None
        j = y * s + zy
        z2 = z + (x - zy) * s**y
        return j, z2

    def _verify_mds(self, verify: str, rng: np.random.Generator) -> bool:
        """Check decodability of r-erasure patterns per the chosen policy."""
        if verify == "off":
            return True
        patterns = list(itertools.combinations(range(self.n), self.r))
        if verify == "auto":
            verify = "full" if len(patterns) <= 60 else "sample"
        if verify == "sample" and len(patterns) > 40:
            idx = rng.choice(len(patterns), size=40, replace=False)
            patterns = [patterns[i] for i in idx]
        l = self.subpacketization
        for erased in patterns:
            cols = [i * l + z for i in erased for z in range(l)]
            if not is_invertible(self._constraints[:, cols]):
                return False
        return True

    # --------------------------------------------------------------------- repair
    def _prepare_repair_plans(self) -> None:
        """Precompute, per failed node, the fused repair plan.

        The r×r solve matrix over the unknown U's is kept in
        ``_repair_solvers`` for the plane-looped reference kernel.  The
        *entire* repair pipeline (uncouple → solve → coupling rebuild) is
        GF-linear in the helper symbols, so running that reference kernel
        on the identity basis yields its ``(l × n·l)`` matrix;
        :meth:`repair` executes that one fused :class:`CodingPlan`.
        """
        l = self.subpacketization
        eye = np.eye(self.n * l, dtype=self._gf.dtype)
        self._repair_solvers: dict[int, tuple[list[int], list[int], np.ndarray]] = {}
        # the raw matrices are kept: their per-helper column slices are the
        # partial-combination kernels of the streamed/pipelined repair
        # (columns of the failed node stay zero)
        self._repair_matrices: dict[int, np.ndarray] = {}
        self._repair_fused: dict[int, CodingPlan] = {}
        for f in range(self.n):
            x0, y0 = self._coords(f)
            same_col = [self._node(x, y0) for x in range(self.s) if x != x0]
            unknown_nodes = [f] + same_col
            known_nodes = [i for i in range(self.n) if i not in unknown_nodes]
            hu_inv = inverse(self.h_scalar[:, unknown_nodes])
            self._repair_solvers[f] = (unknown_nodes, known_nodes, hu_inv)

            basis_view = {
                i: eye[i * l : (i + 1) * l] for i in range(self.n) if i != f
            }
            repair_matrix = self._repair_coupled_naive(f, basis_view)
            self._repair_matrices[f] = repair_matrix
            self._repair_fused[f] = CodingPlan(repair_matrix)
        self._shortened_fused: dict[tuple[int, int], CodingPlan] = {}
        self._helper_plans: dict[tuple[int, int], CodingPlan] = {}
        #: (lost node, stored data rows) -> the nodes an in-place repair reads
        self._stored_helpers: dict[tuple[int, int], tuple[int, ...]] = {}

    def repair_planes(self, failed: int) -> list[int]:
        """The ``l/s`` plane indices every helper must read to repair ``failed``."""
        x0, y0 = self._coords(failed)
        return [z for z in range(self.subpacketization) if self._digit(z, y0) == x0]

    def repair_read_fractions(self, failed: int) -> dict[int, float]:
        """Optimal repair reads 1/s of every one of the n−1 survivors."""
        return {i: 1.0 / self.s for i in range(self.n) if i != failed}

    def _repair_coupled_naive(self, failed: int, view: dict[int, np.ndarray]) -> np.ndarray:
        """Reference repair kernel: one solve per plane, Python-looped.

        The executable specification: the fused matrix is derived from it
        at construction and :meth:`repair` is property-tested against it
        (``tests/test_kernel_equivalence.py``).  ``view`` maps each helper
        to its ``(l, sub)`` plane view; returns the rebuilt ``(l, sub)``
        block.
        """
        gf = GF.get()
        l = self.subpacketization
        sub = next(iter(view.values())).shape[1]
        x0, y0 = self._coords(failed)
        planes = self.repair_planes(failed)
        unknown_nodes, known_nodes, hu_inv = self._repair_solvers[failed]
        _, Minv = self._coupling_coeffs(self.gamma)
        inv_gamma = int(gf.inv(self.gamma))

        def read(i: int, z: int) -> np.ndarray:
            """Coupled symbol (i, z); asserts it lies in the repair read-set."""
            assert self._digit(z, y0) == x0, "read outside the repair plane set"
            return view[i][z]

        def uncoupled(i: int, z: int) -> np.ndarray:
            """U[i, z] for a cross-column helper, from read symbols only."""
            part = self._partner(i, z)
            if part is None:
                return read(i, z)
            j, z2 = part
            x, _ = self._coords(i)
            xj, _ = self._coords(j)
            if x < xj:
                row = Minv[0]
                a, b = read(i, z), read(j, z2)
            else:
                row = Minv[1]
                a, b = read(j, z2), read(i, z)
            out = gf.mul(int(row[0]), a)
            gf.scale_xor_into(out, int(row[1]), b)
            return out

        failed_block = np.empty((l, sub), dtype=gf.dtype)
        for z in planes:
            known_u = np.stack([uncoupled(i, z) for i in known_nodes])
            rhs = apply_to_blocks_naive(self.h_scalar[:, known_nodes], known_u)
            solved = apply_to_blocks_naive(hu_inv, rhs)
            failed_block[z] = solved[0]  # U == C on repair planes for the failed node
            # Recover the failed node's other planes through the coupling pairs
            # with the same-column helpers.
            for pos, helper in enumerate(unknown_nodes[1:], start=1):
                x, _ = self._coords(helper)
                z_dst = self._set_digit(z, y0, x)  # failed-node plane being rebuilt
                u_h = solved[pos]
                c_h = read(helper, z)
                if x < x0:
                    # helper is "a": c_a = u_a + γ u_b  =>  u_b, then c_b
                    u_f = gf.mul(inv_gamma, gf.add(c_h, u_h))
                    c_f = gf.add(gf.mul(self.gamma, u_h), u_f)
                else:
                    # helper is "b": c_b = γ u_a + u_b  =>  u_a, then c_a
                    u_f = gf.mul(inv_gamma, gf.add(c_h, u_h))
                    c_f = gf.add(u_f, gf.mul(self.gamma, u_h))
                failed_block[z_dst] = c_f
        return failed_block

    def _fused_plan(self, failed: int, data_nodes: int) -> CodingPlan:
        """The fused repair plan over a stripe holding ``data_nodes`` data rows.

        A full stripe uses the precompiled ``(l × n·l)`` plan.  A shortened
        one (trailing data nodes are virtual all-zero blocks) drops their
        columns from the cached repair matrix; compiled on first use.
        """
        if data_nodes == self.k:
            return self._repair_fused[failed]
        key = (failed, data_nodes)
        plan = self._shortened_fused.get(key)
        if plan is None:
            l = self.subpacketization
            cols = np.r_[0 : data_nodes * l, self.k * l : self.n * l]
            plan = self._shortened_fused[key] = CodingPlan(
                self._repair_matrices[failed][:, cols]
            )
        return plan

    def repair(self, failed: int, shards) -> RepairResult:
        """Bandwidth-optimal single-node repair.

        Requires all ``n − 1`` helpers; with fewer survivors it falls back
        to a full MDS decode (reading ``k`` whole blocks).  The repair
        executes one precompiled fused plan covering every ``l/s`` plane,
        straight over the stripe's blocks viewed as ``(n·l, sub)`` symbols
        and into the lost node's row — the fused matrix's columns for the
        failed node are zero, so nothing is staged and that row is never
        read.  The plane-looped reference kernel is kept as
        :meth:`_repair_coupled_naive`.

        ``shards`` is either a mapping survivor → block (a fresh block is
        returned) or the stored stripe itself as a ``(data, parity)`` pair
        of ``(k, L)``/``(r, L)`` arrays: then the lost row is rebuilt in
        place and ``.block`` is a view of it.  The pair's ``data`` may hold
        only the leading rows of a shortened stripe; its virtual all-zero
        data nodes are neither read nor counted.
        """
        # a tuple is the stored stripe: testing for it first skips the slow
        # Mapping ABC check
        if type(shards) is not tuple and isinstance(shards, Mapping):
            shards = self._check_shards(shards)
            if failed in shards:
                raise ValueError(f"node {failed} is present in the supplied shards")
            helpers = [i for i in range(self.n) if i != failed]
            if not set(helpers) <= set(shards):
                return super().repair(failed, shards)
            L = shards[helpers[0]].shape[0]
            if L % self.subpacketization:
                raise ValueError(
                    f"block length {L} not a multiple of l={self.subpacketization}"
                )
            data, parity = self._stripe_from_shards(shards, helpers)
            real = self.k
        else:
            data, parity = self._check_stripe(shards, shortened=True)
            real = len(data)
            helpers = self._stored_helpers.get((failed, real)) or self._stripe_helpers(
                failed, real
            )

        block = data[failed] if failed < self.k else parity[failed - self.k]
        l = self.subpacketization
        sub = block.shape[0] // l
        plan = self._repair_fused[failed] if real == self.k else self._fused_plan(failed, real)
        # the (n·l, sub) symbol views of _to_symbols
        plan.apply_into(
            data.reshape(real * l, sub), block.reshape(l, sub), False, parity.reshape(-1, sub)
        )
        planes = l // self.s
        if METRICS.enabled:
            known = self.n - self.s  # cross-column helpers
            METRICS.counter("codes.msr.repair_calls", unit="calls").inc()
            # estimated MAC volume per repaired plane: uncouple the n-r known
            # symbols (2 muls each), the r x (n-r) rhs matmul, the r x r solve,
            # and ~3 muls per coupling pair rebuilt
            per_plane = 2 * known + self.r * known + self.r * self.r + 3 * (self.s - 1)
            METRICS.counter("codes.msr.gf_mul_bytes", unit="bytes").inc(
                planes * sub * per_plane
            )
        return RepairResult(
            block=block, bytes_read=dict.fromkeys(helpers, planes * sub)
        )

    def _stripe_helpers(self, failed: int, real: int) -> tuple[int, ...]:
        """The stored nodes but ``failed`` of a stripe holding ``real`` data
        rows: what its in-place repair reads.  Kept in ``_stored_helpers``."""
        if not (0 <= failed < real or self.k <= failed < self.n):
            raise ValueError(f"failed node {failed} is not stored in this stripe")
        helpers = self._stored_helpers[failed, real] = tuple(
            i for i in (*range(real), *self.parity_nodes) if i != failed
        )
        return helpers

    def repair_batch(self, failed: int, shards: Mapping[int, np.ndarray]) -> list[RepairResult]:
        """:meth:`repair` of the same node in each stripe of a batch, given
        each survivor's ``(batch, L)`` stack."""
        return self._repair_each(failed, shards)

    # ------------------------------------------------------- streamed repair
    def repair_helper_plan(self, failed: int, helper: int) -> CodingPlan:
        """The compiled ``(l × l)`` partial-combination kernel of one helper.

        The fused repair matrix is GF-linear over the stacked helper
        symbols, so its column block for ``helper`` maps that helper's
        ``l`` planes to an ``l``-row partial sum; the block is zero off the
        helper's ``l/s`` repair planes, so an application reads only those.
        The rebuilt block is the XOR of all ``n − 1`` partials: the per-hop
        kernel of the cluster's repair pipeline for MSR stripes.
        """
        if not 0 <= failed < self.n:
            raise ValueError(f"failed node {failed} out of range")
        if helper == failed or not 0 <= helper < self.n:
            raise ValueError(f"invalid helper {helper} for failed node {failed}")
        key = (failed, helper)
        plan = self._helper_plans.get(key)
        if plan is None:
            l = self.subpacketization
            plan = self._helper_plans[key] = CodingPlan(
                self._repair_matrices[failed][:, helper * l : (helper + 1) * l]
            )
        return plan

    def repair_streamed(self, failed: int, shards, chunk_size: int = 1 << 16) -> RepairResult:
        """Chunked helper-by-helper repair: the pipelined path's codec.

        Reads what :meth:`repair` reads, the ``l/s`` repair planes of every
        stored survivor, from either form of ``shards`` it takes (a mapping
        must hold all ``n − 1`` helpers: with fewer, repair is a full
        decode with nothing to pipeline), and folds one helper's partial
        (:meth:`repair_helper_plan`) at a time into the lost block, in
        output chunks of about ``chunk_size`` bytes.  Both splits commute
        with the fused matrix's GF sums: the block is :meth:`repair`'s.
        """
        if type(shards) is not tuple and isinstance(shards, Mapping):
            shards = self._check_shards(shards)
            if failed in shards:
                raise ValueError(f"node {failed} is present in the supplied shards")
            if chunk_size <= 0:
                raise ValueError("chunk_size must be positive")
            helpers = [i for i in range(self.n) if i != failed]
            if not set(helpers) <= set(shards):
                raise ValueError(
                    f"streamed repair needs all n-1 helpers, got {sorted(shards)}"
                )
            l, L = self.subpacketization, shards[helpers[0]].shape[0]
            if L % l:
                raise ValueError(f"block length {L} not a multiple of l={l}")
        else:
            shards = self._check_stripe(shards, shortened=True)
            if chunk_size <= 0:
                raise ValueError("chunk_size must be positive")
            real = len(shards[0])
            helpers = self._stored_helpers.get((failed, real)) or self._stripe_helpers(
                failed, real
            )
        # the helper plans refuse an out-of-range node before anything counts
        plans = [self.repair_helper_plan(failed, i) for i in helpers]
        if METRICS.enabled:
            METRICS.counter("codes.msr.repair_streamed_calls", unit="calls").inc()
        block = self._fold_repair(failed, shards, helpers, plans, chunk_size)
        return RepairResult(block=block, bytes_read=dict.fromkeys(helpers, len(block) // self.s))
