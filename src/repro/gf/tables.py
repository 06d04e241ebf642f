"""Discrete-log tables for GF(2^8), the field every code here computes over.

The paper's RS(k, r) and the Clay-style MSR that stands in for HDFS-EC's
are byte-symbol codes, so the field is fixed: GF(2^8) with the primitive
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), matching common
storage-system practice (ISA-L, jerasure).  Multiplication/division go
through log/antilog tables generated once, in pure Python, on first use;
the hot arithmetic paths (:mod:`repro.gf.arithmetic`) are vectorized NumPy
table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: The primitive polynomial (irreducible, with primitive root x = 2),
#: leading bit included: 0x11D = x^8+x^4+x^3+x^2+1.
PRIMITIVE_POLY = 0x11D


@dataclass(frozen=True)
class GFTables:
    """Log/antilog tables of GF(2^8).

    Attributes
    ----------
    order:
        Number of field elements, 256.
    exp:
        ``exp[i] == g**i`` for the generator ``g = 2``; doubled in length so
        products of logs never need an explicit modulo reduction.
    log:
        ``log[x]`` is the discrete log of ``x``; ``log[0]`` is a sentinel and
        must never be consumed (callers mask zeros explicitly).
    """

    order: int
    exp: np.ndarray = field(repr=False)
    log: np.ndarray = field(repr=False)


def _generate() -> GFTables:
    order = 256
    exp = np.zeros(2 * order, dtype=np.int64)
    log = np.zeros(order, dtype=np.int64)
    x = 1
    for i in range(order - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & order:
            x ^= PRIMITIVE_POLY
    # Duplicate the cycle so exp[log a + log b] works without "% (order-1)".
    exp[order - 1 : 2 * (order - 1)] = exp[: order - 1]
    exp[2 * (order - 1) :] = exp[: 2 * order - 2 * (order - 1)]
    log[0] = 0  # sentinel; arithmetic layer masks zero operands
    return GFTables(order=order, exp=exp, log=log)


@lru_cache(maxsize=None)
def get_tables() -> GFTables:
    """Return (building on first use) the GF(2^8) tables."""
    return _generate()
