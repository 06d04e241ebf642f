"""Vectorized element-wise arithmetic over GF(2^8).

Every function accepts scalars or ndarrays (broadcasting like NumPy ufuncs)
and returns ``uint8`` arrays.  Addition is XOR; multiply goes through the
full 256×256 multiplication table, divide and power through the
discrete-log tables, with zero operands masked so the ``log[0]`` sentinel
is never consumed.
"""

from __future__ import annotations

import threading

import numpy as np

from .tables import GFTables, get_tables

__all__ = [
    "GF",
    "as_symbols",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
]


def as_symbols(arr, what: str) -> np.ndarray:
    """``arr`` as C-contiguous GF(2^8) symbols, refusing wider dtypes.

    The check made where caller bytes enter a codec, converter or block
    kernel: ``np.uint8`` would wrap an int64 300 to 44 and truncate a
    float 1.7 to 1.  ``what`` names the argument in the error.
    """
    arr = np.asarray(arr)
    if arr.dtype.itemsize > 1:
        raise ValueError(f"{what} dtype {arr.dtype} is wider than GF(2^8) symbols")
    return np.ascontiguousarray(arr, dtype=np.uint8)


class GF:
    """The Galois field GF(2^8), exposing vectorized arithmetic.

    One instance exists, built at import; :func:`GF.get` returns it (the
    module-level helpers use it too).

    Examples
    --------
    >>> gf = GF.get()
    >>> int(gf.mul(7, 9))
    63
    >>> int(gf.div(gf.mul(5, 11), 11))
    5
    """

    __slots__ = ("tables", "dtype", "_mul_table", "_mul_table_lock")

    def __init__(self, tables: GFTables):
        self.tables = tables
        #: NumPy dtype used for field elements (a slot, not a property
        #: chain: every block application reads it several times)
        self.dtype = np.uint8
        # Full multiplication table: one gather replaces two log lookups
        # + exp lookup + zero masking.  Built lazily.
        self._mul_table: np.ndarray | None = None
        self._mul_table_lock = threading.Lock()

    @classmethod
    def get(cls) -> "GF":
        """Return the field object (the one built at import)."""
        return _FIELD

    # -- basic properties -------------------------------------------------
    @property
    def order(self) -> int:
        """Field size 256."""
        return self.tables.order

    def _as_elems(self, a) -> np.ndarray:
        arr = np.asarray(a)
        if arr.dtype.kind not in "ui":
            raise TypeError(f"field elements must be unsigned integers, got {arr.dtype}")
        return arr

    # -- arithmetic --------------------------------------------------------
    def add(self, a, b) -> np.ndarray:
        """Field addition (= subtraction): bitwise XOR."""
        return np.bitwise_xor(self._as_elems(a), self._as_elems(b)).astype(self.dtype, copy=False)

    sub = add  # characteristic 2

    def mul_table(self) -> np.ndarray:
        """The 256×256 multiplication table (built on first use).

        Thread-safe: the first build is serialized under a lock so
        concurrent callers (threads coding outside the GIL) neither
        duplicate the 64 KiB construction nor observe a torn publication
        of ``self._mul_table``.  The hot path stays lock-free — a plain
        read of the already-published table.
        """
        table = self._mul_table
        if table is None:
            with self._mul_table_lock:
                table = self._mul_table
                if table is None:
                    elems = np.arange(self.order, dtype=self.dtype)
                    table = np.stack(
                        [
                            self._mul_logexp(np.full_like(elems, c), elems)
                            for c in range(self.order)
                        ]
                    )
                    table.setflags(write=False)
                    self._mul_table = table
        return table

    def _mul_logexp(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = self.tables
        out = t.exp[t.log[a] + t.log[b]]
        nz = (a != 0) & (b != 0)
        return np.where(nz, out, 0).astype(self.dtype, copy=False)

    def mul(self, a, b) -> np.ndarray:
        """Element-wise field multiplication (one multiplication-table gather)."""
        a = self._as_elems(a)
        b = self._as_elems(b)
        return self.mul_table()[a, b]

    def div(self, a, b) -> np.ndarray:
        """Element-wise division ``a / b``; raises on any zero divisor."""
        a = self._as_elems(a)
        b = self._as_elems(b)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^8)")
        t = self.tables
        la = t.log[a]
        lb = t.log[b]
        out = t.exp[la - lb + (t.order - 1)]
        return np.where(a != 0, out, 0).astype(self.dtype, copy=False)

    def inv(self, a) -> np.ndarray:
        """Multiplicative inverse; raises if any element is zero."""
        a = self._as_elems(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no multiplicative inverse")
        t = self.tables
        return t.exp[(t.order - 1) - t.log[a]].astype(self.dtype, copy=False)

    def pow(self, a, e: int) -> np.ndarray:
        """Element-wise exponentiation ``a**e`` for integer ``e >= 0``."""
        a = self._as_elems(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return np.ones_like(a, dtype=self.dtype)
        t = self.tables
        le = (t.log[a] * e) % (t.order - 1)
        out = t.exp[le]
        return np.where(a != 0, out, 0).astype(self.dtype, copy=False)

    def exp(self, i) -> np.ndarray:
        """Generator power ``g**i`` (g = 2), vectorized over ``i``."""
        i = np.asarray(i, dtype=np.int64) % (self.order - 1)
        return self.tables.exp[i].astype(self.dtype, copy=False)

    # -- dot products ------------------------------------------------------
    def scale_xor_into(self, acc: np.ndarray, coeff: int, vec: np.ndarray) -> None:
        """In-place ``acc ^= coeff * vec`` — the erasure-coding kernel of the
        reference implementations (:func:`~repro.gf.apply_to_blocks_naive`).

        ``acc`` and ``vec`` must share shape; ``coeff`` is a scalar element.
        Skips work entirely for coeff == 0 and avoids the table round-trip
        for coeff == 1, matching how storage-grade codecs special-case the
        identity coefficient.
        """
        if coeff == 0:
            return
        if coeff == 1:
            np.bitwise_xor(acc, vec, out=acc)
            return
        np.bitwise_xor(acc, self.mul_table()[coeff][vec], out=acc)


# -- the field, and module-level conveniences on it ----------------------

_FIELD = GF(get_tables())


def gf_add(a, b) -> np.ndarray:
    """XOR addition in GF(2^8)."""
    return _FIELD.add(a, b)


def gf_mul(a, b) -> np.ndarray:
    """Multiplication in GF(2^8)."""
    return _FIELD.mul(a, b)


def gf_div(a, b) -> np.ndarray:
    """Division in GF(2^8)."""
    return _FIELD.div(a, b)


def gf_inv(a) -> np.ndarray:
    """Multiplicative inverse in GF(2^8)."""
    return _FIELD.inv(a)


def gf_pow(a, e: int) -> np.ndarray:
    """Exponentiation in GF(2^8)."""
    return _FIELD.pow(a, e)
