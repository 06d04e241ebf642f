"""Matrix algebra over GF(2^8).

Matrices are plain 2-D ``numpy`` arrays of field elements.  The two workhorse
operations for erasure coding are

* :func:`matmul` — small coefficient-matrix products (used when composing
  transforms such as the EC-Fusion Trans1/Trans2 maps), and
* :func:`apply_to_blocks` — ``M @ data`` where each "scalar" of the data
  vector is a whole storage block (a byte array); this is the encode/decode
  kernel and is implemented as one vectorized scale-and-XOR per nonzero
  coefficient, never touching bytes from Python.
"""

from __future__ import annotations

import numpy as np

from .arithmetic import GF, as_symbols
from .plan import CodingPlan, apply_to_blocks_naive

__all__ = [
    "matmul",
    "mat_vec",
    "identity",
    "block_diag",
    "inverse",
    "rank",
    "solve",
    "is_invertible",
    "independent_rows",
    "vandermonde",
    "cauchy",
    "systematic_rs_parity",
    "apply_to_blocks",
    "apply_to_blocks_naive",
    "CodingPlan",
]

#: Above this many broadcast elements ``matmul`` switches from the
#: O(m·k·n) broadcast intermediate to the memory-light fused kernel
#: (one pass per distinct coefficient, O(k·n) peak memory).  The MSR
#: constructions hit this for every k·l-sized generator assembly.
_MATMUL_BROADCAST_LIMIT = 1 << 16


def identity(n: int) -> np.ndarray:
    """The n×n identity matrix over GF(2^8)."""
    return np.eye(n, dtype=GF.get().dtype)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of ``blocks`` over GF(2^8): each maps its own
    slice of the input to its own slice of the output."""
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))), GF.get().dtype)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8).

    Shapes are validated *before* any arithmetic, so a 1-D operand (or a
    shared-axis mismatch) always raises :class:`ValueError` — never a
    broadcast ``MemoryError`` from an accidental O(m·k·n) intermediate.

    Small products use a broadcast element-wise multiply + XOR-reduce;
    products whose broadcast intermediate would exceed
    ``_MATMUL_BROADCAST_LIMIT`` elements (the k·l-sized MSR generator
    assemblies) run through the fused :class:`CodingPlan` kernel instead,
    which peaks at O(k·n) memory and is byte-identical.
    """
    gf = GF.get()
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"GF matmul needs 2-D operands, got {a.ndim}-D @ {b.ndim}-D "
            f"(shapes {a.shape} @ {b.shape})"
        )
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes for GF matmul: {a.shape} @ {b.shape}")
    if a.shape[0] * a.shape[1] * b.shape[1] > _MATMUL_BROADCAST_LIMIT:
        return CodingPlan(a).apply(np.ascontiguousarray(b, dtype=gf.dtype))
    # (m, k, 1) * (1, k, n) -> elementwise mul then XOR-reduce over k
    prod = gf.mul(a[:, :, None], b[None, :, :])
    return np.bitwise_xor.reduce(prod, axis=1).astype(gf.dtype, copy=False)


def mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix–vector product over GF(2^8)."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("mat_vec expects a 1-D vector")
    return matmul(m, v[:, None])[:, 0]


def _eliminate(
    aug: np.ndarray, gf: GF, pivot_cols: int | None = None
) -> tuple[np.ndarray, int, list[int]]:
    """Gauss–Jordan elimination in place; returns (matrix, rank, pivot columns).

    Pivots are only sought in the first ``pivot_cols`` columns (defaults to
    all), so augmented systems [A | B] report the rank of ``A`` alone.  The
    returned pivot-column list identifies a maximal independent column set.
    """
    rows, cols = aug.shape
    if pivot_cols is None:
        pivot_cols = cols
    r = 0
    piv_cols: list[int] = []
    for c in range(pivot_cols):
        if r == rows:
            break
        pivots = np.nonzero(aug[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + int(pivots[0])
        if p != r:
            aug[[r, p]] = aug[[p, r]]
        pv = int(aug[r, c])
        if pv != 1:
            aug[r] = gf.div(aug[r], np.asarray(pv, dtype=gf.dtype))
        col = aug[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            aug[nz] = gf.add(aug[nz], gf.mul(col[nz, None], aug[r][None, :]))
        piv_cols.append(c)
        r += 1
    return aug, r, piv_cols


def rank(m: np.ndarray) -> int:
    """Rank of a matrix over GF(2^8)."""
    gf = GF.get()
    work = np.array(m, dtype=gf.dtype, copy=True)
    _, rk, _ = _eliminate(work, gf)
    return rk


def is_invertible(m: np.ndarray) -> bool:
    """True iff the square matrix is nonsingular over GF(2^8)."""
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and rank(m) == m.shape[0]


def inverse(m: np.ndarray) -> np.ndarray:
    """Matrix inverse over GF(2^8) via Gauss–Jordan on [M | I]."""
    gf = GF.get()
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("inverse requires a square matrix")
    n = m.shape[0]
    aug = np.concatenate(
        [np.array(m, dtype=gf.dtype, copy=True), identity(n)], axis=1
    )
    aug, rk, _ = _eliminate(aug, gf, pivot_cols=n)
    if rk < n:
        raise np.linalg.LinAlgError("matrix is singular over GF(2^8)")
    return aug[:, n:].copy()


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for square nonsingular ``A`` over GF(2^8).

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    gf = GF.get()
    a = np.asarray(a)
    b = np.asarray(b)
    vec = b.ndim == 1
    rhs = b[:, None] if vec else b
    if a.shape[0] != a.shape[1] or a.shape[0] != rhs.shape[0]:
        raise ValueError(f"incompatible shapes for solve: {a.shape}, {b.shape}")
    n = a.shape[0]
    aug = np.concatenate(
        [np.array(a, dtype=gf.dtype, copy=True), np.array(rhs, dtype=gf.dtype, copy=True)],
        axis=1,
    )
    aug, rk, _ = _eliminate(aug, gf, pivot_cols=n)
    if rk < n:
        raise np.linalg.LinAlgError("singular system over GF(2^8)")
    x = aug[:, n:]
    return x[:, 0].copy() if vec else x.copy()


def independent_rows(m: np.ndarray) -> list[int]:
    """Indices of a maximal linearly independent set of rows of ``m``.

    One elimination pass over ``m.T`` — the pivot columns of the transpose
    are exactly an independent row set of ``m``, chosen greedily from the
    top, which lets decoders prefer low-indexed (data) rows.
    """
    gf = GF.get()
    work = np.array(np.asarray(m).T, dtype=gf.dtype, copy=True)
    _, _, piv = _eliminate(work, gf)
    return piv


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix ``V[i, j] = g^(i*j)`` over GF(2^8) (g = 2)."""
    gf = GF.get()
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    return gf.exp((i * j) % (gf.order - 1))


def cauchy(rows: int, cols: int) -> np.ndarray:
    """Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)`` over GF(2^8).

    Uses ``x_i = i`` and ``y_j = rows + j``; every square submatrix of a
    Cauchy matrix is invertible, which makes the derived RS code MDS.
    """
    gf = GF.get()
    if rows + cols > gf.order:
        raise ValueError(f"cauchy({rows}, {cols}) does not fit in GF(2^8)")
    x = np.arange(rows, dtype=gf.dtype)[:, None]
    y = np.arange(rows, rows + cols, dtype=gf.dtype)[None, :]
    return gf.inv(gf.add(x, y))


def systematic_rs_parity(k: int, r: int) -> np.ndarray:
    """The r×k parity-coefficient matrix ``P`` of a systematic MDS code.

    The full generator is ``G = [I_k ; P]``; parities are ``p = P @ d``.
    Built from a Cauchy matrix so that every square submatrix of ``P`` is
    invertible — the property the EC-Fusion transformation (eq. (4) of the
    paper) relies on when inverting the r×r group blocks ``B_i``.
    """
    return cauchy(r, k)


def apply_to_blocks(m: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Compute ``m @ blocks`` where each row of ``blocks`` is a storage block.

    Parameters
    ----------
    m:
        Coefficient matrix of shape (out_blocks, in_blocks).
    blocks:
        Array of shape (in_blocks, block_len) of field elements.

    Returns
    -------
    Array of shape (out_blocks, block_len).

    Notes
    -----
    This is the throughput-critical kernel.  It compiles the matrix into a
    fused :class:`CodingPlan` and executes it: one table-gather + segmented
    XOR-reduce per *distinct* nonzero coefficient instead of one gather per
    matrix entry, byte-identical to :func:`apply_to_blocks_naive` (the kept
    reference implementation).  Callers that apply the same matrix
    repeatedly should compile a :class:`CodingPlan` once and reuse it.
    """
    m = np.asarray(m)
    blocks = as_symbols(blocks, "blocks")
    if m.ndim != 2 or blocks.ndim != 2 or m.shape[1] != blocks.shape[0]:
        raise ValueError(f"incompatible shapes: {m.shape} applied to {blocks.shape}")
    return CodingPlan(m).apply(blocks)
