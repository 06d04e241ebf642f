"""Kernel backend registry for :class:`~repro.gf.plan.CodingPlan`.

A compiled plan is *what* to compute (its nonzero coefficients); a
**backend** is *how* one application executes.  All backends produce
byte-identical output — they are pure reassociations of the same
GF(2^8) sums — and every one is property-tested against
:func:`~repro.gf.plan.apply_to_blocks_naive` (``tests/test_gf_backends.py``).
Three are registered:

``translate``
    The historical path: one pass per distinct coefficient, scaling via
    a 256-entry table map in place in the gathered rows, then
    ``bitwise_xor.reduceat`` + one XOR per output row.  Works for any
    shape; the universal fallback.
``pair``
    Wide-block NumPy path: views input rows as uint16 *byte pairs* and
    gathers from per-(input-row, output-chunk) 64 K-entry uint64 tables
    that carry the products of both bytes for up to four output rows at
    once, XOR-folding in u64 lanes.  ~2–3× ``translate`` at ≥64 KB
    blocks with no compiler required; table build is memory-bounded by
    :data:`PAIR_MAX_UNITS`.
``native``
    The runtime-compiled SIMD kernel (:mod:`repro.gf.native`): GFNI
    affine multiply or nibble-split shuffle at the widest vector the CPU
    has; GB/s-class.  Absent when the host has no C compiler or no rung
    passes the load-time self-test — :func:`repro.gf.native.native_info`
    says which.

Selection is ``native`` wherever the kernel exists and, where it does
not, ``pair`` from a measured block width up and ``translate`` below — see
:func:`resolve_backend` and ``docs/performance.md`` — and can be forced
with ``REPRO_GF_BACKEND=<name>`` for testing.  A forced backend that
cannot run a given plan/shape (native unavailable, odd constraints)
falls back down the same ladder rather than erroring, so the override is
always safe to set globally.
"""

from __future__ import annotations

import numpy as np

from . import native as _native

__all__ = [
    "BACKEND_NAMES",
    "available_backends",
    "forced_backend",
    "resolve_backend",
    "PAIR_MAX_UNITS",
]

#: registered backend names, fallback-ladder order (fastest wide-block first)
BACKEND_NAMES = ("native", "pair", "translate")

#: hard cap on pair-table units per plan — each unit is a 512 KB uint64
#: table, so this bounds per-plan table memory at 8 MB.
PAIR_MAX_UNITS = 16

#: below this many columns the pair tables cannot amortise their build
#: cost or beat the translate path's streaming passes (measured crossover;
#: see docs/performance.md).
PAIR_MIN_COLS = 1 << 14


def available_backends() -> tuple[str, ...]:
    """Backends usable on this host."""
    if _native.native_available():
        return BACKEND_NAMES
    return BACKEND_NAMES[1:]


def forced_backend() -> str | None:
    """The ``REPRO_GF_BACKEND`` override, validated against the registry."""
    name = _native.switch(_native.BACKEND_SWITCH)
    if not name:
        return None
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"REPRO_GF_BACKEND={name!r}: unknown backend, "
            f"expected one of {BACKEND_NAMES}"
        )
    return name


def _supports(name: str, plan, ncols: int) -> bool:
    """Whether NumPy backend ``name`` can execute ``plan`` on ``ncols``-byte blocks."""
    if name == "translate":
        return True
    if name == "pair":
        return plan.nnz > 0 and ncols >= 2 and plan._pair_unit_count() <= PAIR_MAX_UNITS
    return False


def resolve_backend(plan, ncols: int) -> tuple:
    """``(backend name, compiled kernel or None)`` for one application of ``plan``.

    ``native`` serves every GF(2^8) plan at every width wherever the
    compiled kernel exists: one application is one C call
    (``docs/performance.md``).  A host without it runs the NumPy ladder:

    * ``pair`` takes blocks of at least :data:`PAIR_MIN_COLS` columns
      whose tables fit :data:`PAIR_MAX_UNITS`, where its u64 packed
      gathers beat byte streaming;
    * ``translate`` otherwise — and always for an all-zero matrix.

    A validated ``REPRO_GF_BACKEND`` wins whenever it supports the
    (plan, shape); unsupported combinations fall back down the ladder.
    Both switches are read here, and the kernel is returned with the name
    so the caller does not look it up again.  ``CodingPlan.apply_into``
    reads the same two switches first: with both unset, the kernel
    resolved and the plan's unit program built it already knows the
    answer and calls the kernel entry without this call.
    """
    forced = forced_backend()
    if forced not in (None, "native") and _supports(forced, plan, ncols):
        return forced, None
    if plan.nnz == 0:
        return "translate", None
    if (fn := _native.kernel()) is not None:
        return "native", fn
    if ncols >= PAIR_MIN_COLS and _supports("pair", plan, ncols):
        return "pair", None
    return "translate", None


# -- pair-backend lowering ---------------------------------------------------


class PairProgram:
    """A plan lowered for the pair backend.

    Output rows are processed in chunks of four (one uint64 lane holds
    four output bytes for a *pair* of input positions); ``chunks`` maps
    each ``(out_row_start, [(in_row, table), ...])`` where ``table`` is
    the ``(65536,)`` uint64 lookup indexed by the little-endian uint16
    view of two adjacent input bytes.
    """

    __slots__ = ("chunks", "nrows_out")

    def __init__(self, chunks, nrows_out):
        self.chunks = chunks
        self.nrows_out = nrows_out


def pair_unit_count(entry_out: np.ndarray, entry_in: np.ndarray) -> int:
    """Units a pair lowering of these entries would need (cheap, no build)."""
    return len({(int(o) >> 2, int(i)) for o, i in zip(entry_out, entry_in)})


def build_pair_program(
    entry_out: np.ndarray,
    entry_in: np.ndarray,
    entry_coeff: np.ndarray,
    mul_table: np.ndarray,
    n_out: int,
) -> PairProgram:
    """Lower nonzero entries to packed uint64 pair tables."""
    per_unit: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for o, i, c in zip(entry_out, entry_in, entry_coeff):
        per_unit.setdefault((int(o) >> 2, int(i)), []).append(
            (int(o) & 3, int(c))
        )
    chunks: dict[int, list] = {}
    for (chunk, in_row), slots in sorted(per_unit.items()):
        # planar value layout: bytes [r0c0 r1c0 r2c0 r3c0 | r0c1 r1c1 r2c1 r3c1]
        lo = np.zeros((256, 8), np.uint8)
        hi = np.zeros((256, 8), np.uint8)
        for slot, coeff in slots:
            lo[:, slot] ^= mul_table[coeff]
            hi[:, slot + 4] ^= mul_table[coeff]
        lo64 = lo.view(np.uint64)[:, 0]
        hi64 = hi.view(np.uint64)[:, 0]
        # index = x0 + 256*x1 (little-endian u16 of adjacent bytes)
        table = (hi64[:, np.newaxis] | lo64[np.newaxis, :]).ravel()
        chunks.setdefault(chunk, []).append((in_row, table))
    return PairProgram(sorted(chunks.items()), n_out)


#: tile (in uint16 pairs) for the pair gather loop — keeps the u64
#: accumulator cache-resident (measured best at 1 MB blocks).
_PAIR_TILE = 1 << 17


def run_pair(
    program: PairProgram,
    blocks: np.ndarray,
    out: np.ndarray,
    accumulate: bool,
) -> bool:
    """Execute the even-length prefix of ``blocks`` through ``program``.

    Covers columns ``[0, 2*(ncols//2))``; the caller finishes an odd
    trailing column.  Touches only output rows
    owned by some unit — the caller zeroes the rest when not
    accumulating.  Returns ``True`` (a convenience for callers chaining
    the tail).
    """
    ncols = blocks.shape[1]
    half = ncols // 2
    idx = blocks[:, : 2 * half].view(np.uint16)
    for chunk, units in program.chunks:
        rows = min(4, program.nrows_out - 4 * chunk)
        for start in range(0, half, _PAIR_TILE):
            stop = min(start + _PAIR_TILE, half)
            in_row, table = units[0]
            acc = np.take(table, idx[in_row, start:stop])
            for in_row, table in units[1:]:
                acc ^= np.take(table, idx[in_row, start:stop])
            a8 = acc.view(np.uint8).reshape(stop - start, 2, 4)
            seg = out[4 * chunk : 4 * chunk + rows, 2 * start : 2 * stop]
            seg = seg.reshape(rows, stop - start, 2)
            if accumulate:
                for r in range(rows):
                    seg[r, :, 0] ^= a8[:, 0, r]
                    seg[r, :, 1] ^= a8[:, 1, r]
            else:
                for r in range(rows):
                    seg[r, :, 0] = a8[:, 0, r]
                    seg[r, :, 1] = a8[:, 1, r]
    return True
