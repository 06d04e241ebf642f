"""Vectorized element-wise arithmetic over GF(2^w).

Every function accepts scalars or ndarrays (broadcasting like NumPy ufuncs)
and returns arrays of the field's natural dtype.  Addition is XOR; multiply,
divide and power go through the discrete-log tables, with zero operands
masked so the ``log[0]`` sentinel is never consumed.
"""

from __future__ import annotations

import threading

import numpy as np

from .tables import GFTables, get_tables

__all__ = [
    "GF",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
]


class GF:
    """A Galois field GF(2^w) exposing vectorized arithmetic.

    Instances are cheap wrappers around the cached tables; use :func:`GF.get`
    (or module-level helpers defaulting to GF(256)) rather than holding global
    state.

    Examples
    --------
    >>> gf = GF.get(8)
    >>> int(gf.mul(7, 9))
    63
    >>> int(gf.div(gf.mul(5, 11), 11))
    5
    """

    __slots__ = ("tables", "dtype", "_mul_table", "_translate_tables", "_mul_table_lock")

    _instances: dict[int, "GF"] = {}
    _instances_lock = threading.Lock()

    def __init__(self, tables: GFTables):
        self.tables = tables
        #: NumPy dtype used for field elements (a slot, not a property
        #: chain: every block application reads it several times)
        self.dtype = tables.dtype
        # Full multiplication table for small fields: one gather replaces
        # two log lookups + exp lookup + zero masking.  Built lazily; only
        # affordable for w <= 8 (GF(2^16) would need 8 GiB).
        self._mul_table: np.ndarray | None = None
        # 256-byte ``bytes.translate`` tables, one per coefficient: the
        # fastest scaling primitive NumPy-land offers for uint8 data
        # (~4x a fancy-index table gather).  Built lazily with mul_table.
        self._translate_tables: list[bytes] | None = None
        self._mul_table_lock = threading.Lock()

    @classmethod
    def get(cls, w: int = 8) -> "GF":
        """Return the singleton field object for GF(2^w).

        Thread-safe: concurrent first calls (threads coding outside the
        GIL, which the native kernel releases) observe exactly one
        instance per field.
        """
        inst = cls._instances.get(w)
        if inst is None:
            with cls._instances_lock:
                inst = cls._instances.get(w)
                if inst is None:
                    inst = cls(get_tables(w))
                    cls._instances[w] = inst
        return inst

    # -- basic properties -------------------------------------------------
    @property
    def w(self) -> int:
        """Word size in bits."""
        return self.tables.w

    @property
    def order(self) -> int:
        """Field size 2^w."""
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
        """The order×order multiplication table (built on first use, w ≤ 8).

        Thread-safe: the first build is serialized under a lock so
        concurrent callers (threads coding outside the GIL) neither
        duplicate the 64 KiB construction nor observe a torn publication
        of ``self._mul_table``.  The hot path stays lock-free — a plain
        read of the already-published table.
        """
        if self.tables.w > 8:
            raise ValueError(f"mul table too large for GF(2^{self.tables.w})")
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

    def scale_translation(self, coeff: int) -> bytes:
        """256-byte ``bytes.translate`` table scaling by ``coeff`` (w ≤ 8).

        ``raw.translate(table)`` maps every byte ``x`` to ``coeff * x`` —
        the fastest bulk GF scaling primitive available from pure Python
        (C-speed, no index-array materialisation).  For w < 8 the table is
        zero-padded past ``order``; those bytes are not field elements and
        never occur in valid data.  Built lazily under the same lock as
        :meth:`mul_table`.
        """
        if self.tables.w > 8:
            raise ValueError(f"translate tables need w <= 8, got w={self.tables.w}")
        tabs = self._translate_tables
        if tabs is None:
            mt = self.mul_table()  # outside the lock: mul_table locks itself
            with self._mul_table_lock:
                tabs = self._translate_tables
                if tabs is None:
                    pad = bytes(256 - self.order)
                    tabs = [mt[c].tobytes() + pad for c in range(self.order)]
                    self._translate_tables = tabs
        return tabs[coeff]

    def _mul_logexp(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = self.tables
        out = t.exp[t.log[a] + t.log[b]]
        nz = (a != 0) & (b != 0)
        return np.where(nz, out, 0).astype(self.dtype, copy=False)

    def mul(self, a, b) -> np.ndarray:
        """Element-wise field multiplication (table gather for w ≤ 8)."""
        a = self._as_elems(a)
        b = self._as_elems(b)
        if self.tables.w <= 8:
            return self.mul_table()[a, b]
        return self._mul_logexp(a, b)

    def div(self, a, b) -> np.ndarray:
        """Element-wise division ``a / b``; raises on any zero divisor."""
        a = self._as_elems(a)
        b = self._as_elems(b)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^w)")
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
    def scale_xor_into(
        self,
        acc: np.ndarray,
        coeff: int,
        vec: np.ndarray,
        scratch: np.ndarray | None = None,
    ) -> None:
        """In-place ``acc ^= coeff * vec`` — the erasure-coding kernel.

        ``acc`` and ``vec`` must share shape; ``coeff`` is a scalar element.
        Skips work entirely for coeff == 0 and avoids the table round-trip
        for coeff == 1, matching how storage-grade codecs special-case the
        identity coefficient.

        ``scratch`` (w ≤ 8 only) is an optional caller-owned buffer with at
        least ``vec.size`` elements of the field dtype: the scaled product
        is gathered straight into it instead of a fresh temporary, making
        repeated streamed-repair folds allocation-free.
        """
        if coeff == 0:
            return
        if coeff == 1:
            np.bitwise_xor(acc, vec, out=acc)
            return
        if self.tables.w <= 8:
            if scratch is not None:
                prod = scratch[: vec.size].reshape(vec.shape)
                np.take(self.mul_table()[coeff], vec, out=prod, mode="clip")
                np.bitwise_xor(acc, prod, out=acc)
                return
            np.bitwise_xor(acc, self.mul_table()[coeff][vec], out=acc)
            return
        t = self.tables
        lc = int(t.log[coeff])
        prod = t.exp[t.log[vec] + lc].astype(self.dtype, copy=False)
        np.bitwise_xor(acc, np.where(vec != 0, prod, 0).astype(self.dtype, copy=False), out=acc)


# -- module-level conveniences on the default GF(256) --------------------

_GF8 = GF.get(8)


def gf_add(a, b, w: int = 8) -> np.ndarray:
    """XOR addition in GF(2^w)."""
    return GF.get(w).add(a, b)


def gf_mul(a, b, w: int = 8) -> np.ndarray:
    """Multiplication in GF(2^w)."""
    return GF.get(w).mul(a, b)


def gf_div(a, b, w: int = 8) -> np.ndarray:
    """Division in GF(2^w)."""
    return GF.get(w).div(a, b)


def gf_inv(a, w: int = 8) -> np.ndarray:
    """Multiplicative inverse in GF(2^w)."""
    return GF.get(w).inv(a)


def gf_pow(a, e: int, w: int = 8) -> np.ndarray:
    """Exponentiation in GF(2^w)."""
    return GF.get(w).pow(a, e)
