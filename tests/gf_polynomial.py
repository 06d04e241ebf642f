"""Polynomial utilities over GF(2^8).

A test oracle: no codec calls it.  Tests check the matrix-based
Reed–Solomon code against evaluation and Lagrange interpolation here, an
independent formulation of the same code.  Coefficients are stored
lowest-degree first.
"""

from __future__ import annotations

import numpy as np

from repro.gf import GF

__all__ = ["poly_eval", "poly_eval_many", "lagrange_interpolate", "poly_mul", "poly_add"]


def poly_eval(coeffs: np.ndarray, x: int) -> int:
    """Evaluate a polynomial at a single point using Horner's rule."""
    gf = GF.get()
    acc = 0
    for c in np.asarray(coeffs)[::-1]:
        acc = int(gf.add(gf.mul(acc, x), int(c)))
    return acc


def poly_eval_many(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial at many points (vectorized Horner)."""
    gf = GF.get()
    xs = np.asarray(xs, dtype=gf.dtype)
    acc = np.zeros_like(xs)
    for c in np.asarray(coeffs)[::-1]:
        acc = gf.add(gf.mul(acc, xs), np.full_like(xs, c))
    return acc


def poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Polynomial addition (XOR of aligned coefficients)."""
    gf = GF.get()
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=gf.dtype)
    out[: len(a)] = a
    out[: len(b)] = gf.add(out[: len(b)], np.asarray(b, dtype=gf.dtype))
    return out


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Polynomial multiplication over GF(2^8) (schoolbook; small degrees)."""
    gf = GF.get()
    a = np.asarray(a, dtype=gf.dtype)
    b = np.asarray(b, dtype=gf.dtype)
    out = np.zeros(len(a) + len(b) - 1, dtype=gf.dtype)
    for i, ai in enumerate(a):
        if ai:
            out[i : i + len(b)] = gf.add(out[i : i + len(b)], gf.mul(int(ai), b))
    return out


def lagrange_interpolate(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Coefficients of the unique degree-(n-1) polynomial through the points.

    ``xs`` must be pairwise distinct.  Runs in O(n^2); the tests
    interpolate over at most k points, so this is never a bottleneck.
    """
    gf = GF.get()
    xs = np.asarray(xs, dtype=gf.dtype)
    ys = np.asarray(ys, dtype=gf.dtype)
    if len(set(int(x) for x in xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    n = len(xs)
    result = np.zeros(n, dtype=gf.dtype)
    for i in range(n):
        if ys[i] == 0:
            continue
        # basis_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = np.array([1], dtype=gf.dtype)
        denom = 1
        for j in range(n):
            if j == i:
                continue
            basis = poly_mul(basis, np.array([xs[j], 1], dtype=gf.dtype))
            denom = int(gf.mul(denom, int(gf.add(int(xs[i]), int(xs[j])))))
        scale = int(gf.div(int(ys[i]), denom))
        result = poly_add(result, gf.mul(scale, basis))
    return result
