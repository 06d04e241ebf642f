"""Fused block-coding kernels: precompiled :class:`CodingPlan` execution.

The naive encode/decode kernel walks a coefficient matrix entry by entry
and issues one table-gather + XOR per nonzero coefficient — ``nnz(m)``
NumPy dispatches per application.  Storage-grade codecs instead *compile*
the matrix once into a :class:`CodingPlan`, and each application executes
through one of several registered **backends** (:mod:`repro.gf.backends`):

``translate``
    One fused pass per distinct coefficient value: a 256-entry table map
    scales every row sharing that coefficient into a reusable per-plan
    scratch buffer (no per-call allocations), then
    ``np.bitwise_xor.reduceat`` folds contiguous output runs and one
    duplicate-free fancy-indexed XOR scatters them.  ``O(distinct
    coefficients)`` dispatches, any matrix and block shape.
``gather``
    One double fancy-index into the multiplication table computes every
    product at once (~4 NumPy calls total) — the tiny-block path of a
    host without the compiled kernel, where dispatch overhead, not
    bandwidth, dominates.
``pair``
    Wide-block NumPy path gathering packed uint64 products for byte
    *pairs*; ~2–3× ``translate`` at MB-scale blocks, no compiler needed.
``native``
    A runtime-compiled SIMD kernel (:mod:`repro.gf.native`: GFNI affine
    multiply or nibble-split shuffle, at the widest vector the CPU has)
    — GB/s-class and one C call per application, so it serves every
    GF(2^8) plan at every block size wherever the host can compile it.

Backends are selected per application by
:func:`repro.gf.backends.resolve_backend` — ``native`` first, the
measured crossovers between the NumPy paths where there is no kernel —
(forceable via ``REPRO_GF_BACKEND``), and every one produces
byte-identical output: they are pure reassociations of the same GF(2^8)
sums.

A plan may also be given as a product of sparse **factors** (``factors=``
``[F_1, …, F_s]``, checked at construction to multiply to its matrix): the
``native`` kernel then runs the whole product as one *chained* program,
tile by tile through scratch rows it allocates per call, so a coupled-layer
MSR encode costs its three sparse steps (153 multiply-accumulates per
group at (6, 3)) instead of its dense product (225), and a conversion
that needs a derived group's data rebuilds it inside the same call.  Calls
with rows narrower than a few KiB, where a chain's extra rows cost more
than its saved units unless it saves more than half of them, and the
NumPy backends apply the dense matrix, so every path produces the same
bytes.  The output, like the input, may be split over two
arrays (``out_tail``): a stripe's data rows and parity rows are written by
one call.

:func:`apply_to_blocks_naive` keeps the original row-by-row kernel as
the executable specification; ``tests/test_kernel_equivalence.py`` and
``tests/test_gf_backends.py`` byte-compare every backend against it on
every registered code and erasure pattern.
"""

from __future__ import annotations

import numpy as np

from . import backends as _backends
from . import native as _native
from .arithmetic import GF

__all__ = ["CodingPlan", "apply_to_blocks_naive"]

#: the backend switches, keyed and stored as :mod:`repro.gf.native` reads them
_SWITCHES = _native.SWITCHES
_KILL_SWITCH = _native.KILL_SWITCH
_BACKEND_SWITCH = _native.BACKEND_SWITCH


def apply_to_blocks_naive(m: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Reference kernel: one scale-and-XOR per nonzero coefficient.

    This is the original (pre-fusion) implementation of
    :func:`repro.gf.matrix.apply_to_blocks`, kept as the executable
    specification the fused paths are property-tested against.
    """
    gf = GF.get()
    m = np.asarray(m)
    blocks = np.ascontiguousarray(blocks, dtype=gf.dtype)
    if m.ndim != 2 or blocks.ndim != 2 or m.shape[1] != blocks.shape[0]:
        raise ValueError(f"incompatible shapes: {m.shape} applied to {blocks.shape}")
    out = np.zeros((m.shape[0], blocks.shape[1]), dtype=gf.dtype)
    for i in range(m.shape[0]):
        row = m[i]
        for j in np.nonzero(row)[0]:
            gf.scale_xor_into(out[i], int(row[j]), blocks[j])
    return out


class _CoeffGroup:
    """All matrix entries sharing one coefficient, sorted by output row."""

    __slots__ = ("coeff", "in_rows", "out_rows", "reduce_offsets")

    def __init__(self, coeff: int, out_rows: np.ndarray, in_rows: np.ndarray):
        # Stable sort by output row so equal-output entries are contiguous
        # and reduceat folds them in ascending input order — the same
        # left-to-right XOR order as the naive kernel (XOR is associative
        # and commutative, so any order is byte-identical anyway).
        order = np.argsort(out_rows, kind="stable")
        out_sorted = out_rows[order]
        self.coeff = int(coeff)
        self.in_rows = in_rows[order]
        # Segment boundaries: first occurrence of each distinct output row.
        uniq, starts = np.unique(out_sorted, return_index=True)
        self.out_rows = uniq
        # reduceat needs the start offset of every segment; a group where
        # every entry hits a distinct output row needs no reduction at all.
        self.reduce_offsets = starts if len(uniq) < len(out_sorted) else None


class CodingPlan:
    """A coefficient matrix compiled for repeated block application.

    Parameters
    ----------
    m:
        Coefficient matrix of shape ``(out_blocks, in_blocks)`` over
        GF(2^8).  The plan snapshots the matrix at compile time; later
        mutation of ``m`` does not affect the plan.
    factors:
        Optionally ``[F_1, …, F_s]`` with ``F_s ⋯ F_1 == m`` (else
        :class:`ValueError`): the ``native`` kernel runs that chain
        (:func:`repro.gf.native.build_chain_program`) when it has fewer
        units than ``m`` has nonzeros and either at most half as many or
        the call's rows are at least
        :data:`repro.gf.native.CHAIN_MIN_WIDTH` wide, ``m`` otherwise;
        the NumPy backends always run ``m``.

    Per-backend lowerings (translate groups, gather layout, pair tables,
    native unit program) and the translate scratch buffer are built
    lazily on first use and cached on the plan; concurrent first-builds
    may race but only ever replace one immutable lowering with an
    identical one, so plans stay safe to share across threads.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gf import systematic_rs_parity
    >>> m = systematic_rs_parity(4, 2)
    >>> plan = CodingPlan(m)
    >>> blocks = np.arange(4 * 8, dtype=np.uint8).reshape(4, 8)
    >>> bool(np.array_equal(plan.apply(blocks), apply_to_blocks_naive(m, blocks)))
    True
    """

    __slots__ = (
        "shape",
        "_groups",
        "_gf",
        "nnz",
        "_flat",
        "_entry_out",
        "_entry_in",
        "_entry_coeff",
        "_scratch",
        "_pair_prog",
        "_pair_units",
        "_native_prog",
        "_factors",
        "_dtype",
    )

    #: Below this many product elements (``nnz * block_len``) the NumPy
    #: ladder switches to the single-gather path: one double fancy-index
    #: into the multiplication table computes every product at once (~4
    #: NumPy calls total), which beats every streaming NumPy backend when
    #: dispatch overhead — not memory bandwidth — dominates.  (The
    #: compiled kernel, where it exists, beats it from one column up.)
    _GATHER_LIMIT = 1 << 13

    #: tile (elements) for the scratch-buffer table map in
    #: :meth:`_scaled_rows` — keeps the destination cache-resident so the
    #: in-place map streams instead of thrashing at MB sizes.
    _SCALE_TILE = 1 << 16

    def __init__(self, m: np.ndarray, factors=None):
        gf = GF.get()
        m = gf._as_elems(m)
        if m.ndim != 2:
            raise ValueError(f"CodingPlan needs a 2-D matrix, got shape {m.shape}")
        if factors is not None:
            from .matrix import matmul

            factors = [np.array(f, np.uint8) for f in factors]
            product = factors[0]
            for f in factors[1:]:
                product = matmul(f, product)
            if not np.array_equal(product, m):
                raise ValueError(f"the factors do not multiply to the {m.shape} matrix")
        self._factors = factors
        self.shape = m.shape
        self._gf = gf
        out_rows, in_rows = np.nonzero(m)
        coeffs = np.asarray(m)[out_rows, in_rows]
        self.nnz = len(coeffs)
        self._groups = self._flat = None
        # Raw entry triples for the lazy per-backend lowerings: a plan the
        # compiled kernel serves never builds the NumPy paths' layouts.
        self._entry_out = out_rows
        self._entry_in = in_rows
        self._entry_coeff = coeffs
        self._scratch = None
        self._pair_prog = None
        self._pair_units = None
        self._native_prog = None
        # the field dtype as a dtype instance: what the per-application
        # checks compare against without converting a type each time
        self._dtype = np.dtype(gf.dtype)

    def _coeff_groups(self) -> list[_CoeffGroup]:
        """The ``translate`` layout: one group per distinct coefficient."""
        groups = self._groups
        if groups is None:
            # Ascending coefficient order keeps plans deterministic;
            # coefficient 1 (plain XOR, no gather) is by construction the
            # first group.  (np.unique without return_index would import
            # numpy.ma.)
            coeffs = self._entry_coeff
            groups = self._groups = [
                _CoeffGroup(c, self._entry_out[coeffs == c], self._entry_in[coeffs == c])
                for c in sorted(set(coeffs.tolist()))
            ]
        return groups

    def _flat_layout(self) -> tuple:
        """The ``gather`` layout: every entry sorted by output row so one
        XOR-reduceat folds each output segment → ``(coefficients column,
        input rows, distinct output rows, their segment starts)``."""
        flat = self._flat
        if flat is None:
            order = np.argsort(self._entry_out, kind="stable")
            flat = self._flat = (
                self._entry_coeff[order][:, None],
                self._entry_in[order],
                *np.unique(self._entry_out[order], return_index=True),
            )
        return flat

    def backend_for(self, ncols: int) -> str:
        """The backend :meth:`apply` would execute for ``ncols`` columns."""
        return _backends.choose_backend(self, ncols)

    # -- coefficient scaling (translate backend) ----------------------------

    def _scaled_rows(self, coeff: int, rows: np.ndarray) -> np.ndarray:
        """``coeff * rows`` for one group in one bulk pass, output-allocation-free.

        The scaling is a 256-entry table map executed tile by
        tile into a reusable per-plan scratch buffer — the historical
        ``rows.tobytes().translate(...)`` + ``np.frombuffer`` round trip
        copied every group twice per application; the scratch version
        copies zero times and returns a view into the plan's scratch
        (valid until the next ``_scaled_rows`` call on this plan).
        Temporaries are bounded by one ``_SCALE_TILE`` of NumPy's internal
        index conversion, independent of ``rows.size``.
        """
        if coeff == 1:
            return rows
        gf = self._gf
        need = rows.size
        scratch = self._scratch
        if scratch is None or scratch.size < need:
            scratch = self._scratch = np.empty(need, gf.dtype)
        mt_row = gf.mul_table()[coeff]
        src = rows.reshape(-1)
        dst = scratch[:need]
        for a in range(0, need, self._SCALE_TILE):
            b = min(a + self._SCALE_TILE, need)
            # mode="clip" never triggers (uint8 indices into a
            # 256-entry row) but selects NumPy's fast bounds-free
            # take loop, and out= writes straight into the scratch.
            np.take(mt_row, src[a:b], out=dst[a:b], mode="clip")
        return dst.reshape(rows.shape)

    # -- backend runners -----------------------------------------------------
    #
    # Contract: ``blocks`` is ``(in_rows, ncols)`` and ``out`` is
    # ``(out_rows, ncols)``, both of the field dtype with contiguous rows
    # (any row stride).  With ``accumulate=False`` the runner fully defines
    # ``out``; with ``accumulate=True`` it XORs the product on top of
    # ``out``.  Input rows whose matrix column is all-zero are never read,
    # so ``out`` may alias them (in-place repair of a stored codeword).

    def _run_translate(self, blocks: np.ndarray, out: np.ndarray, accumulate: bool) -> None:
        if not accumulate:
            out[:] = 0
        for g in self._coeff_groups():
            prod = self._scaled_rows(g.coeff, blocks[g.in_rows])
            if g.reduce_offsets is not None:
                prod = np.bitwise_xor.reduceat(prod, g.reduce_offsets, axis=0)
            # g.out_rows is duplicate-free, so in-place fancy XOR is safe.
            out[g.out_rows] ^= prod

    def _run_gather(self, blocks: np.ndarray, out: np.ndarray, accumulate: bool) -> None:
        """Small-block execution: one fancy-index computes all products.

        ``mul_table[coeff, value]`` over the flat (output-row-sorted) entry
        layout yields an ``(nnz, ncols)`` product buffer in a single gather;
        one XOR-reduceat folds each output segment.  Slower per byte than
        the streaming backends but a constant ~4 NumPy dispatches, so it
        wins when blocks are small enough that call overhead dominates.
        """
        coeffs, ins, outs, starts = self._flat or self._flat_layout()
        prods = self._gf.mul_table()[coeffs, blocks[ins]]
        if self.nnz > len(outs):
            prods = np.bitwise_xor.reduceat(prods, starts, axis=0)
        if accumulate:
            out[outs] ^= prods
        else:
            if len(outs) != self.shape[0]:
                out[:] = 0
            out[outs] = prods

    def _pair_unit_count(self) -> int:
        count = self._pair_units
        if count is None:
            count = self._pair_units = _backends.pair_unit_count(
                self._entry_out, self._entry_in
            )
        return count

    def _pair_program(self):
        prog = self._pair_prog
        if prog is None:
            prog = self._pair_prog = _backends.build_pair_program(
                self._entry_out,
                self._entry_in,
                self._entry_coeff,
                self._gf.mul_table(),
                self.shape[0],
            )
        return prog

    def _run_pair(self, blocks: np.ndarray, out: np.ndarray, accumulate: bool) -> None:
        if not accumulate:
            out[:] = 0
        _backends.run_pair(self._pair_program(), blocks, out, accumulate)
        ncols = blocks.shape[1]
        if ncols % 2:
            # odd trailing column: one tiny gather finishes it exactly.
            self._run_gather(blocks[:, ncols - 1 :], out[:, ncols - 1 :], True)

    def _native_program(self):
        prog = self._native_prog
        if prog is None:
            mt = self._gf.mul_table()
            if self._factors is not None:
                prog = _native.build_chain_program(self._factors, mt)
            if prog is None or prog.nunits >= self.nnz:
                # a chain that saves no unit is not worth its scratch rows
                prog = _native.build_unit_program(
                    self._entry_out, self._entry_in, self._entry_coeff, mt, *self.shape
                )
            self._native_prog = prog
        return prog

    def _run_native(
        self,
        fn,
        blocks: np.ndarray,
        out: np.ndarray,
        accumulate: bool,
        tail: np.ndarray | None = None,
        out_tail: np.ndarray | None = None,
    ) -> None:
        # the body of native.run, one frame fewer: fn is the entry itself
        prog = self._native_prog
        if prog is None:
            prog = self._native_program()
        fn(prog.head, blocks, tail, out, accumulate, out_tail)

    # -- application ---------------------------------------------------------

    def _rows(self, blocks: np.ndarray) -> np.ndarray:
        """``blocks`` as a field-dtype 2-D array with contiguous rows.

        Copy-free for anything that already is one — C-contiguous arrays,
        row slices, column windows — so callers can hand in views of the
        buffers they own.
        """
        blocks = np.asarray(blocks, dtype=self._dtype)
        if blocks.ndim == 2 and not (
            blocks.flags.c_contiguous or blocks.strides[1] == blocks.itemsize
        ):
            blocks = np.ascontiguousarray(blocks)
        return blocks

    def _check_input(
        self, blocks: np.ndarray, tail: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        blocks = self._rows(blocks)
        rows = blocks.shape[0] if blocks.ndim == 2 else -1
        if tail is not None:
            tail = self._rows(tail)
            if tail.ndim != 2 or blocks.ndim != 2 or tail.shape[1] != blocks.shape[1]:
                raise ValueError(
                    f"tail rows {tail.shape} do not continue blocks {blocks.shape}"
                )
            rows += tail.shape[0]
        if rows != self.shape[1]:
            shape = blocks.shape if tail is None else (rows,) + blocks.shape[1:]
            raise ValueError(f"incompatible shapes: {self.shape} applied to {shape}")
        return blocks, tail

    def _execute(
        self,
        blocks: np.ndarray,
        tail: np.ndarray | None,
        out: np.ndarray,
        accumulate: bool,
        out_tail: np.ndarray | None = None,
    ) -> np.ndarray:
        backend, fn = _backends.resolve_backend(self, blocks.shape[1])
        if backend == "native":
            self._run_native(fn, blocks, out, accumulate, tail, out_tail)
            return out
        # only the compiled kernel walks two arrays; the NumPy fallbacks
        # gather from one and write one
        if tail is not None:
            blocks = np.concatenate([blocks, tail])
        dest = out
        if out_tail is not None:
            dest = np.concatenate([out, out_tail]) if accumulate else np.empty(
                (self.shape[0], blocks.shape[1]), self._dtype
            )
        if backend == "gather":
            self._run_gather(blocks, dest, accumulate)
        elif backend == "pair":
            self._run_pair(blocks, dest, accumulate)
        else:
            self._run_translate(blocks, dest, accumulate)
        if out_tail is not None:
            out[...], out_tail[...] = dest[: len(out)], dest[len(out) :]
        return out

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """Compute ``m @ blocks`` (each row of ``blocks`` a storage block).

        The allocating form of :meth:`apply_into`: a fresh output buffer,
        the same execution.
        """
        blocks, _ = self._check_input(blocks, None)
        return self.apply_into(blocks, np.empty((self.shape[0], blocks.shape[1]), self._dtype))

    def apply_into(
        self,
        blocks: np.ndarray,
        out: np.ndarray,
        accumulate: bool = False,
        tail: np.ndarray | None = None,
        out_tail: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute ``m @ blocks`` into a caller-donated buffer.

        The one execution primitive: every codec and conversion above
        writes its result where it is stored through this call.

        ``blocks`` and ``out`` are field-dtype ``(in_rows, ncols)`` /
        ``(out_rows, ncols)`` arrays with contiguous rows; the row stride
        is free, so row slices and column windows of a larger buffer are
        used in place (anything else is copied first, for ``blocks``, or
        refused, for ``out``).  With ``accumulate=True`` the product is
        XOR-folded on top of ``out`` — the partial-sum primitive of
        streamed repair and of the eq. (3) parity merge — with no
        temporaries and no output allocation.

        ``tail`` continues the input rows in a second array (row
        ``len(blocks) + i`` of the matrix input is ``tail[i]``): a stored
        stripe keeps data and parity in separate buffers, and a repair
        reads both.  ``out_tail`` continues the output rows the same way
        (row ``len(out) + i`` of the product lands in ``out_tail[i]``): a
        write stores a stripe's data rows and its parity rows in one call.
        Input rows whose matrix column is all-zero are never read, so
        ``out`` may be such rows of ``blocks``/``tail`` — a lost block is
        rebuilt where it is stored.  Returns ``out``.

        Both switches are read on every application, as dict probes.  With
        both unset, the kernel resolved and this plan's unit program built
        (its first application ran natively), the application is the
        kernel entry alone: the entry is the check, and whatever it
        refuses comes back here to be converted or refused as below.
        """
        prog = self._native_prog
        resolved = _native._cached
        if (
            prog is not None
            and resolved
            and _KILL_SWITCH not in _SWITCHES
            and _BACKEND_SWITCH not in _SWITCHES
        ):
            fn = resolved[0][0]
            if fn is not None:
                try:
                    fn(prog.head, blocks, tail, out, accumulate, out_tail)
                    return out
                except (ValueError, TypeError, BufferError):
                    pass  # the entry wrote nothing: the checks below decide
        blocks, tail = self._check_input(blocks, tail)
        ncols = blocks.shape[1]
        rows = self.shape[0]
        if out_tail is not None:
            if not self._writeable(out_tail, ncols) or len(out_tail) > rows:
                raise ValueError(
                    f"out_tail must be a writeable {self._gf.dtype} array of at most "
                    f"{rows} rows of {ncols} columns with contiguous rows"
                )
            rows -= len(out_tail)
        if not self._writeable(out, ncols) or len(out) != rows:
            raise ValueError(
                f"out must be a writeable {self._gf.dtype} array of shape "
                f"{(rows, ncols)} with contiguous rows"
            )
        return self._execute(blocks, tail, out, accumulate, out_tail)

    def _writeable(self, out, ncols: int) -> bool:
        """Whether ``out`` is a writeable field-dtype 2-D array of ``ncols``
        columns with contiguous rows (what an output array must be)."""
        return (
            isinstance(out, np.ndarray)
            and out.ndim == 2
            and out.shape[1] == ncols
            and out.dtype == self._dtype
            and ((flags := out.flags).c_contiguous or out.strides[1] == out.itemsize)
            and flags.writeable
        )

    def apply_batch(self, stacked: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`apply_into` of each stripe of a ``(batch, in_rows, ncols)``
        stack, into ``out`` (a ``(batch, out_rows, ncols)`` array, allocated
        when not given)."""
        gf = self._gf
        stacked = np.ascontiguousarray(stacked, dtype=gf.dtype)
        if stacked.ndim != 3 or stacked.shape[1] != self.shape[1]:
            raise ValueError(
                f"incompatible shapes: {self.shape} batch-applied to {stacked.shape}"
            )
        batch, _, ncols = stacked.shape
        if out is None:
            out = np.empty((batch, self.shape[0], ncols), dtype=gf.dtype)
        elif (
            not isinstance(out, np.ndarray)
            or out.shape != (batch, self.shape[0], ncols)
            or out.dtype != gf.dtype
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be C-contiguous {gf.dtype} of shape "
                f"{(batch, self.shape[0], ncols)}"
            )
        for blocks, dest in zip(stacked, out):
            self.apply_into(blocks, dest)
        return out

    __call__ = apply
