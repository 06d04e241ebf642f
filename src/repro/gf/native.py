"""Runtime-compiled nibble-split GF(2^8) kernel (the ``native`` backend).

The fastest way to scale bytes by a GF(2^8) constant on commodity CPUs is
the classic nibble-split shuffle (Plank et al., *Screaming Fast Galois
Field Arithmetic*, FAST'13): split every input byte into low/high
nibbles, look each up in a 16-entry product table held in a vector
register, XOR the halves.  One 16-lane table shuffle replaces sixteen
scalar table loads, so a single core sustains multiple GB/s — an order
of magnitude past what any byte-table path reachable from NumPy or
``bytes.translate`` can do.

Python cannot express that shuffle, so this module carries a ~60-line C
kernel as a string, compiles it **at import of first use** with whatever
C compiler the host has (``cc``/``gcc``/``clang``), and binds it through
:mod:`ctypes`.  Three properties make the scheme safe to ship:

* **Graceful absence.**  No compiler, a failed compile, or a kernel that
  does not byte-match the pure-python reference on a self-test simply
  means :func:`kernel` returns ``None`` and the caller stays on the
  NumPy backends.  ``REPRO_GF_NATIVE=0`` force-disables it.
* **Host-local codegen.**  The kernel is compiled on the machine that
  runs it, so ``-march=native`` is always legal; without it GCC expands
  ``__builtin_shuffle`` to scalar code and the kernel is no faster than
  ``bytes.translate``.  Flag sets are tried best-first and the build is
  cached on disk keyed by a hash of (source, flags).
* **One generic entry point.**  The C side executes a *unit program*:
  one unit per nonzero matrix coefficient, carrying a 32-byte low/high
  nibble product table plus input/output row indices, sorted by output
  row.  Any ``CodingPlan`` — encode generator, cached decode solve,
  fused MSR repair — lowers to the same program shape, so the compiled
  artifact is shared by every code in the repo.

The kernel mutates nothing global and releases no resources at exit;
the cached ``.so`` under the system temp dir is reused across runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

__all__ = ["kernel", "native_available", "UnitProgram", "build_unit_program", "run"]

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef uint8_t v16 __attribute__((vector_size(16)));

/* Execute a unit program: each unit XOR-accumulates mul(coeff, in_row)
 * into an output row using 16-entry low/high nibble product tables
 * (32 bytes per unit).  Units must be sorted by output row so each
 * output tile is accumulated in registers and stored once.  Tiled over
 * the block length for cache residency.
 *
 * The input rows may live in two arrays: rows [0, split) in `in`, rows
 * [split, ...) in `tail` (a stripe's data and parity buffers), each with
 * its own row stride.  Input rows no unit names are never read, so `out`
 * may be such a row of `in`/`tail` (in-place repair). */
void gf_apply_units(const uint8_t *tables,   /* nunits * 32 */
                    const int32_t *unit_in,  /* input row per unit */
                    const int32_t *unit_out, /* output row per unit */
                    int32_t nunits,
                    const uint8_t *in, int64_t in_stride,
                    const uint8_t *tail, int64_t tail_stride, int32_t split,
                    uint8_t *out, int64_t out_stride,
                    int64_t L, int accumulate)
{
    const v16 mask = {15,15,15,15,15,15,15,15,15,15,15,15,15,15,15,15};
    const int64_t TILE = 32768;
    for (int64_t t0 = 0; t0 < L; t0 += TILE) {
        int64_t t1 = t0 + TILE < L ? t0 + TILE : L;
        int64_t nv = (t1 - t0) & ~(int64_t)63;   /* 64-byte vector chunks */
        int32_t u = 0;
        while (u < nunits) {
            int32_t row = unit_out[u];
            int32_t ue = u;
            while (ue < nunits && unit_out[ue] == row) ue++;
            uint8_t *op = out + (int64_t)row * out_stride + t0;
            for (int64_t t = 0; t < nv; t += 64) {
                v16 a0, a1, a2, a3;
                if (accumulate) {
                    memcpy(&a0, op + t, 16); memcpy(&a1, op + t + 16, 16);
                    memcpy(&a2, op + t + 32, 16); memcpy(&a3, op + t + 48, 16);
                } else {
                    a0 = a1 = a2 = a3 = (v16){0};
                }
                for (int32_t k = u; k < ue; k++) {
                    const uint8_t *tp = tables + (int64_t)k * 32;
                    v16 lo, hi;
                    memcpy(&lo, tp, 16);
                    memcpy(&hi, tp + 16, 16);
                    int32_t r = unit_in[k];
                    const uint8_t *ip = (r < split
                        ? in + (int64_t)r * in_stride
                        : tail + (int64_t)(r - split) * tail_stride) + t0 + t;
                    v16 x0, x1, x2, x3;
                    memcpy(&x0, ip, 16); memcpy(&x1, ip + 16, 16);
                    memcpy(&x2, ip + 32, 16); memcpy(&x3, ip + 48, 16);
                    a0 ^= __builtin_shuffle(lo, x0 & mask)
                        ^ __builtin_shuffle(hi, (x0 >> 4) & mask);
                    a1 ^= __builtin_shuffle(lo, x1 & mask)
                        ^ __builtin_shuffle(hi, (x1 >> 4) & mask);
                    a2 ^= __builtin_shuffle(lo, x2 & mask)
                        ^ __builtin_shuffle(hi, (x2 >> 4) & mask);
                    a3 ^= __builtin_shuffle(lo, x3 & mask)
                        ^ __builtin_shuffle(hi, (x3 >> 4) & mask);
                }
                memcpy(op + t, &a0, 16); memcpy(op + t + 16, &a1, 16);
                memcpy(op + t + 32, &a2, 16); memcpy(op + t + 48, &a3, 16);
            }
            /* scalar tail of this tile */
            for (int64_t t = nv; t < t1 - t0; t++) {
                uint8_t acc = accumulate ? op[t] : 0;
                for (int32_t k = u; k < ue; k++) {
                    const uint8_t *tp = tables + (int64_t)k * 32;
                    int32_t r = unit_in[k];
                    uint8_t x = (r < split
                        ? in + (int64_t)r * in_stride
                        : tail + (int64_t)(r - split) * tail_stride)[t0 + t];
                    acc ^= tp[x & 15] ^ tp[16 + (x >> 4)];
                }
                op[t] = acc;
            }
            u = ue;
        }
    }
}
"""

#: tried best-first; ``-march=native`` is what makes ``__builtin_shuffle``
#: lower to a vector byte-shuffle instruction (PSHUFB / TBL) rather than
#: scalar loads — without it the kernel is no faster than the NumPy paths.
_FLAG_SETS = (
    ("-O3", "-march=native"),
    ("-O3", "-mssse3"),
    ("-O3",),
)

_ARGTYPES = [
    ctypes.c_void_p,  # tables
    ctypes.c_void_p,  # unit_in
    ctypes.c_void_p,  # unit_out
    ctypes.c_int32,   # nunits
    ctypes.c_void_p,  # in
    ctypes.c_int64,   # in_stride
    ctypes.c_void_p,  # tail
    ctypes.c_int64,   # tail_stride
    ctypes.c_int32,   # split
    ctypes.c_void_p,  # out
    ctypes.c_int64,   # out_stride
    ctypes.c_int64,   # L
    ctypes.c_int,     # accumulate
]

_lock = threading.Lock()
_cached: list = []  # [fn_or_None] once resolved


class UnitProgram:
    """A matrix lowered for :func:`run`: nibble tables + row indices.

    ``tables`` is ``(nunits, 32)`` uint8 (16 low-nibble then 16
    high-nibble products per unit); ``unit_in``/``unit_out`` are int32
    row indices sorted by output row; ``zero_rows`` lists output rows
    with no unit at all (all-zero matrix rows), which the kernel never
    touches and the caller must clear when not accumulating.
    """

    __slots__ = ("tables", "unit_in", "unit_out", "zero_rows", "nunits")

    def __init__(self, tables, unit_in, unit_out, zero_rows):
        self.tables = tables
        self.unit_in = unit_in
        self.unit_out = unit_out
        self.zero_rows = zero_rows
        self.nunits = len(unit_in)


def build_unit_program(
    out_rows: np.ndarray,
    in_rows: np.ndarray,
    coeffs: np.ndarray,
    mul_table: np.ndarray,
    n_out: int,
) -> UnitProgram:
    """Lower a sparse coefficient list to a sorted unit program."""
    order = np.argsort(out_rows, kind="stable")
    outs = np.ascontiguousarray(out_rows[order].astype(np.int32))
    ins = np.ascontiguousarray(in_rows[order].astype(np.int32))
    cs = coeffs[order]
    nib = np.arange(16)
    tables = np.empty((len(cs), 32), np.uint8)
    for k, c in enumerate(cs):
        tables[k, :16] = mul_table[int(c), nib]
        tables[k, 16:] = mul_table[int(c), nib << 4]
    covered = np.zeros(n_out, bool)
    covered[outs] = True
    zero_rows = np.nonzero(~covered)[0]
    return UnitProgram(np.ascontiguousarray(tables), ins, outs, zero_rows)


def _compile(flags: tuple[str, ...], cc: str):
    """Compile (or reuse) the kernel for one flag set; raises on failure."""
    key = hashlib.sha256(
        ("\x00".join((_C_SOURCE, cc) + flags)).encode()
    ).hexdigest()[:16]
    cache = os.path.join(tempfile.gettempdir(), f"repro-gf-native-{key}")
    so = os.path.join(cache, "gfkern.so")
    if not os.path.exists(so):
        os.makedirs(cache, exist_ok=True)
        src = os.path.join(cache, "gfkern.c")
        with open(src, "w") as fh:
            fh.write(_C_SOURCE)
        tmp = os.path.join(cache, f"gfkern.{os.getpid()}.tmp.so")
        subprocess.run(
            [cc, *flags, "-shared", "-fPIC", src, "-o", tmp],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, so)  # atomic: concurrent builders all win
    lib = ctypes.CDLL(so)
    fn = lib.gf_apply_units
    fn.argtypes = _ARGTYPES
    fn.restype = None
    return fn


def _self_test(fn) -> bool:
    """Byte-compare the compiled kernel against a pure-python product.

    Uses an odd length so both the 64-byte vector body and the scalar
    tail execute, and checks both accumulate modes and the two-array
    input split.  A miscompiled or mis-targeted build is dropped rather
    than trusted.
    """
    from .arithmetic import GF

    mt = GF.get(8).mul_table()
    rng = np.random.default_rng(20260808)
    m = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    m[2, :] = 0  # an all-zero output row the kernel must skip
    L = 67
    blocks = rng.integers(0, 256, (4, L), dtype=np.uint8)
    expect = np.zeros((3, L), np.uint8)
    for i in range(3):
        for j in range(4):
            expect[i] ^= mt[m[i, j]][blocks[j]]
    outs, ins = np.nonzero(m)
    prog = build_unit_program(outs, ins, m[outs, ins], mt, 3)
    got = np.empty((3, L), np.uint8)
    got[prog.zero_rows] = 0
    run(fn, prog, blocks, got, accumulate=False)
    if not np.array_equal(got, expect):
        return False
    run(fn, prog, blocks[:1], got, accumulate=False, tail=blocks[1:].copy())
    if not np.array_equal(got, expect):
        return False
    run(fn, prog, blocks, got, accumulate=True)  # x ^ x == 0
    return not got[np.nonzero(m.any(axis=1))[0]].any()


def run(
    fn,
    program: UnitProgram,
    blocks: np.ndarray,
    out: np.ndarray,
    accumulate: bool,
    tail: np.ndarray | None = None,
) -> None:
    """Invoke the kernel on uint8 ``blocks`` (+ ``tail``) → ``out``.

    Every array is 2-D with contiguous rows (any row stride).  ``tail``
    holds the input rows from ``len(blocks)`` on when the input is split
    over two arrays.
    """
    if tail is None:
        tail = blocks
    fn(
        program.tables.ctypes.data,
        program.unit_in.ctypes.data,
        program.unit_out.ctypes.data,
        program.nunits,
        blocks.ctypes.data,
        blocks.strides[0],
        tail.ctypes.data,
        tail.strides[0],
        blocks.shape[0],
        out.ctypes.data,
        out.strides[0],
        out.shape[1],
        1 if accumulate else 0,
    )


def kernel():
    """The compiled kernel entry point, or ``None`` when unavailable.

    The compile attempt happens once per process and is cached; the
    ``REPRO_GF_NATIVE=0`` kill-switch is honoured on every call so tests
    can disable the backend without restarting the interpreter.
    """
    if os.environ.get("REPRO_GF_NATIVE", "1") == "0":
        return None
    if _cached:
        return _cached[0]
    with _lock:
        if _cached:
            return _cached[0]
        fn = None
        cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
        if cc is not None:
            for flags in _FLAG_SETS:
                try:
                    cand = _compile(flags, cc)
                except (OSError, subprocess.SubprocessError):
                    continue
                if _self_test(cand):
                    fn = cand
                    break
        _cached.append(fn)
        return fn


def native_available() -> bool:
    """Whether the runtime-compiled kernel is usable on this host."""
    return kernel() is not None
