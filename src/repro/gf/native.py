"""Runtime-compiled GF(2^8) multiply-accumulate kernel (the ``native`` backend).

Scaling bytes by a GF(2^8) constant has two fast formulations on
commodity CPUs, and this module carries both in one C source:

* **nibble-split shuffle** (Plank et al., *Screaming Fast Galois Field
  Arithmetic*, FAST'13): split every input byte into low/high nibbles,
  look each up in a 16-entry product table held in a vector register,
  XOR the halves — two byte shuffles per coefficient per vector;
* **affine multiply**: multiplication by a constant ``c`` is linear over
  GF(2), i.e. an 8×8 bit matrix ``M_c``; GFNI's ``vgf2p8affineqb``
  applies one such matrix to every byte of a vector, so a coefficient
  costs *one* instruction per 64 bytes (:func:`affine_matrices`).

Python can express neither, so the kernel is a C string compiled **at
first use** with whatever C compiler the host has (``cc``/``gcc``/
``clang``).  The same source has **two entries** to the same
``gf_apply_units``:

* ``fastcall`` — where ``Python.h`` for the running interpreter exists,
  the shared object is also an extension module whose ``apply`` takes the
  block arrays through the buffer protocol and releases the GIL around
  the kernel.  It is the application's one check: it knows the unit
  program's input and output row counts and refuses, before writing a
  byte, every array ``CodingPlan.apply_into`` would refuse or convert —
  wrong row counts or widths, anything but 2-D ``uint8`` with contiguous
  rows, an ``out`` or ``out_tail`` that is not a writeable ndarray — so a warm
  application is one Python frame and one C call, ≈ 0.6–0.9 µs over the
  kernel (2.7 µs while the checks ran in Python first), and only a
  refused array walks the Python checks;
* ``ctypes`` — without headers, or when that build fails, the plain
  symbol is bound through :mod:`ctypes` and wrapped to the same
  signature and the same checks (≈ 8 µs of marshalling per application,
  the same GB/s once blocks are large).

The source also holds a **vector-width ladder**; the preprocessor keeps
the widest rung the compile flags allow and the library reports which
(``gf_isa``):

* ``gfni-avx512`` — affine multiply, 2 × 64 B per step, masked ragged
  end (GFNI + AVX-512BW);
* ``gfni-avx2`` — the same loop on 2 × 32 B (GFNI + AVX2);
* ``avx2`` — nibble shuffle on 2 × 32 B, tables duplicated per lane;
* ``generic`` — nibble shuffle on 16-byte GCC vectors (PSHUFB with
  SSSE3, TBL on NEON, scalar code otherwise).

Four properties make the scheme safe to ship:

* **Graceful absence.**  No compiler, a failed compile, or a build that
  does not byte-match the table reference on the load-time self-test
  drops to the next entry of :data:`_RUNGS`; when none is left
  :func:`kernel` returns ``None`` and callers stay on the NumPy
  backends.  A fastcall build that fails costs the entry, never the
  rung.  :func:`native_info` says which rung and entry serve, what was
  passed over, or why nothing does.  ``REPRO_GF_NATIVE=0`` force-disables
  the backend.
* **Host-local codegen.**  ``-march=native`` is tried first and is always
  legal on the machine that compiles; the explicit ``-m…`` rungs below it
  run only when ``/proc/cpuinfo`` lists what they need.  The build is
  cached on disk keyed by (source, compiler, flags, **CPU features**,
  **interpreter ABI**), so a temp dir shared between unlike hosts never
  hands one host the other's instructions, nor one Python the other's
  extension module.
* **The rung and the entry are observed, never configured.**  Nothing
  selects them but the CPU, the compiler and the headers present.
* **One generic entry point.**  The C side executes a *unit program*:
  one unit per nonzero matrix coefficient, carrying a 32-byte low/high
  nibble product table, the 8-byte affine matrix and input/output row
  indices, the units of one output row consecutive.  Any ``CodingPlan``
  — encode generator, cached decode solve, fused MSR repair — lowers to
  the same program shape, so the compiled artifact is shared by every
  code in the repo.

The one entry does three more things, each checked by the load-time
self-test:

* **Chained programs.**  A product of sparse factors (a coupled-layer
  MSR encode: uncouple, one scalar MDS map per plane, recouple) lowers to
  one program whose intermediate rows are *scratch rows*
  (:func:`build_chain_program`).  The kernel allocates them per call,
  one column tile each, and runs the units in program order tile by
  tile, so the intermediate products never leave the per-core cache and
  the call still reads each input and writes each output once.  A chain
  also writes more destination rows than its dense product, and on
  narrow rows a row costs about as much as 2–3 units: unless the chain
  needs at most half the product's units, the product's dense units
  follow the chain's, and a call narrower than :data:`CHAIN_MIN_WIDTH`
  runs those (``docs/performance.md``, the measured crossovers).
* **A split output.**  ``out_tail`` continues the output rows the way
  ``tail`` continues the input rows: a stripe's data rows and parity
  rows, or two MSR groups' parity sets, are written by one call.
* **Streaming stores.**  A call that overwrites at least
  :data:`STREAM_BYTES` of output stores its 64-byte aligned output rows
  non-temporally (``sfence`` before returning): such an output is larger
  than what the caches could keep for the next operation, and a cached
  store would first read every line it overwrites.  Smaller outputs are
  re-read while still cached, so they are stored as usual;
  :func:`aligned_empty` allocates the large buffers a store keeps.

The kernel mutates nothing global and releases no resources at exit;
the cached ``.so`` under the system temp dir is reused across runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import platform
import shutil
import subprocess
import sysconfig
import tempfile
import threading

import numpy as np

__all__ = [
    "kernel",
    "native_available",
    "native_info",
    "affine_matrices",
    "UnitProgram",
    "build_unit_program",
    "build_chain_program",
    "aligned_empty",
    "run",
]

_C_SOURCE = r"""
#ifdef GF_PY_ENTRY
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#endif
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GFNI__) && defined(__AVX512F__) && defined(__AVX512BW__)
#define GF_ISA "gfni-avx512"
#define GF_AFFINE512 1
#elif defined(__GFNI__) && defined(__AVX2__)
#define GF_ISA "gfni-avx2"
#define GF_AFFINE256 1
#elif defined(__AVX2__)
#define GF_ISA "avx2"
#define GF_NIBBLE256 1
#else
#define GF_ISA "generic"
#endif

#ifdef __AVX2__
#include <immintrin.h>
#endif

const char *gf_isa(void) { return GF_ISA; }

/* One pass: op[0..len) (^)= sum_k mul(c_k, ip[k][0..len)) over the n
 * units of one output row.  tp holds the units' 32-byte nibble tables,
 * ap their affine matrices.  With `stream` (op 64-byte aligned) the
 * full-width steps store non-temporally.  Returns how many leading bytes
 * were done; the caller finishes the rest byte by byte. */

#if defined(GF_AFFINE512)

static inline int64_t gf_pass(const uint8_t *const *ip, const uint8_t *tp,
                              const uint64_t *ap, int n,
                              uint8_t *op, int64_t len, int acc, int stream)
{
    (void)tp;
    int64_t t = 0;
    for (; t + 128 <= len; t += 128) {
        __m512i a0 = _mm512_setzero_si512(), a1 = a0;
        if (acc) {
            a0 = _mm512_loadu_si512(op + t);
            a1 = _mm512_loadu_si512(op + t + 64);
        }
        for (int k = 0; k < n; k++) {
            __m512i m = _mm512_set1_epi64((long long)ap[k]);
            a0 = _mm512_xor_si512(a0, _mm512_gf2p8affine_epi64_epi8(
                _mm512_loadu_si512(ip[k] + t), m, 0));
            a1 = _mm512_xor_si512(a1, _mm512_gf2p8affine_epi64_epi8(
                _mm512_loadu_si512(ip[k] + t + 64), m, 0));
        }
        if (stream) {
            _mm512_stream_si512((void *)(op + t), a0);
            _mm512_stream_si512((void *)(op + t + 64), a1);
        } else {
            _mm512_storeu_si512(op + t, a0);
            _mm512_storeu_si512(op + t + 64, a1);
        }
    }
    /* the ragged end, at most two steps: masked lanes are neither read
     * nor written */
    for (; t < len; t += 64) {
        __mmask64 mk = len - t >= 64 ? ~(__mmask64)0
                                     : (((__mmask64)1 << (len - t)) - 1);
        __m512i a = acc ? _mm512_maskz_loadu_epi8(mk, op + t)
                        : _mm512_setzero_si512();
        for (int k = 0; k < n; k++)
            a = _mm512_xor_si512(a, _mm512_gf2p8affine_epi64_epi8(
                _mm512_maskz_loadu_epi8(mk, ip[k] + t),
                _mm512_set1_epi64((long long)ap[k]), 0));
        _mm512_mask_storeu_epi8(op + t, mk, a);
    }
    return len;
}

#elif defined(GF_AFFINE256)

static inline int64_t gf_pass(const uint8_t *const *ip, const uint8_t *tp,
                              const uint64_t *ap, int n,
                              uint8_t *op, int64_t len, int acc, int stream)
{
    (void)tp;
    int64_t t = 0;
    for (; t + 64 <= len; t += 64) {
        __m256i a0 = _mm256_setzero_si256(), a1 = a0;
        if (acc) {
            a0 = _mm256_loadu_si256((const __m256i *)(op + t));
            a1 = _mm256_loadu_si256((const __m256i *)(op + t + 32));
        }
        for (int k = 0; k < n; k++) {
            __m256i m = _mm256_set1_epi64x((long long)ap[k]);
            a0 = _mm256_xor_si256(a0, _mm256_gf2p8affine_epi64_epi8(
                _mm256_loadu_si256((const __m256i *)(ip[k] + t)), m, 0));
            a1 = _mm256_xor_si256(a1, _mm256_gf2p8affine_epi64_epi8(
                _mm256_loadu_si256((const __m256i *)(ip[k] + t + 32)), m, 0));
        }
        if (stream) {
            _mm256_stream_si256((__m256i *)(op + t), a0);
            _mm256_stream_si256((__m256i *)(op + t + 32), a1);
        } else {
            _mm256_storeu_si256((__m256i *)(op + t), a0);
            _mm256_storeu_si256((__m256i *)(op + t + 32), a1);
        }
    }
    return t;
}

#elif defined(GF_NIBBLE256)

static inline int64_t gf_pass(const uint8_t *const *ip, const uint8_t *tp,
                              const uint64_t *ap, int n,
                              uint8_t *op, int64_t len, int acc, int stream)
{
    (void)ap;
    const __m256i mask = _mm256_set1_epi8(15);
    int64_t t = 0;
    for (; t + 64 <= len; t += 64) {
        __m256i a0 = _mm256_setzero_si256(), a1 = a0;
        if (acc) {
            a0 = _mm256_loadu_si256((const __m256i *)(op + t));
            a1 = _mm256_loadu_si256((const __m256i *)(op + t + 32));
        }
        for (int k = 0; k < n; k++) {
            /* vpshufb shuffles within each 128-bit lane: both lanes
             * carry the same 16-entry table */
            __m256i lo = _mm256_broadcastsi128_si256(
                _mm_loadu_si128((const __m128i *)(tp + 32 * k)));
            __m256i hi = _mm256_broadcastsi128_si256(
                _mm_loadu_si128((const __m128i *)(tp + 32 * k + 16)));
            __m256i x0 = _mm256_loadu_si256((const __m256i *)(ip[k] + t));
            __m256i x1 = _mm256_loadu_si256((const __m256i *)(ip[k] + t + 32));
            a0 = _mm256_xor_si256(a0, _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(x0, mask)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x0, 4), mask))));
            a1 = _mm256_xor_si256(a1, _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(x1, mask)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x1, 4), mask))));
        }
        if (stream) {
            _mm256_stream_si256((__m256i *)(op + t), a0);
            _mm256_stream_si256((__m256i *)(op + t + 32), a1);
        } else {
            _mm256_storeu_si256((__m256i *)(op + t), a0);
            _mm256_storeu_si256((__m256i *)(op + t + 32), a1);
        }
    }
    return t;
}

#else /* generic: GCC vector extensions, PSHUFB / TBL / scalar */

typedef uint8_t v16 __attribute__((vector_size(16)));

static inline int64_t gf_pass(const uint8_t *const *ip, const uint8_t *tp,
                              const uint64_t *ap, int n,
                              uint8_t *op, int64_t len, int acc, int stream)
{
    (void)ap; (void)stream;  /* plain stores: no portable streaming store */
    const v16 mask = {15,15,15,15,15,15,15,15,15,15,15,15,15,15,15,15};
    int64_t t = 0;
    for (; t + 64 <= len; t += 64) {
        v16 a0, a1, a2, a3;
        if (acc) {
            memcpy(&a0, op + t, 16); memcpy(&a1, op + t + 16, 16);
            memcpy(&a2, op + t + 32, 16); memcpy(&a3, op + t + 48, 16);
        } else {
            a0 = a1 = a2 = a3 = (v16){0};
        }
        for (int k = 0; k < n; k++) {
            v16 lo, hi, x0, x1, x2, x3;
            memcpy(&lo, tp + 32 * k, 16);
            memcpy(&hi, tp + 32 * k + 16, 16);
            memcpy(&x0, ip[k] + t, 16); memcpy(&x1, ip[k] + t + 16, 16);
            memcpy(&x2, ip[k] + t + 32, 16); memcpy(&x3, ip[k] + t + 48, 16);
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
    return t;
}

#endif

/* Output bytes a call must overwrite before its output rows are stored
 * non-temporally (past the caches: the call's output is larger than what
 * the next call could still find there, and a cached store would first
 * read every line it overwrites).  Smaller outputs are re-read while hot. */
#define GF_STREAM_MIN (1 << 20)
/* Column tiles: a plain program walks 32 KiB of each row per tile.  A
 * chained one keeps a tile of every scratch row live as well, so its tile
 * is cut until they all fit in GF_SCRATCH bytes: they stay in the per-core
 * cache, and the per-call allocation stays under the C library's mmap
 * threshold (128 KiB by default; freeing a larger mapping would raise it
 * for the whole process). */
#define GF_TILE 32768
#define GF_SCRATCH (96 * 1024)

static inline uint8_t *gf_out_row(uint8_t *out, int64_t out_stride,
                                  uint8_t *out_tail, int64_t out_tail_stride,
                                  int32_t out_split, int32_t row)
{
    return row < out_split ? out + (int64_t)row * out_stride
                           : out_tail + (int64_t)(row - out_split) * out_tail_stride;
}

/* Execute a unit program: each unit XOR-accumulates mul(coeff, in_row)
 * into a destination row.  The units of one destination are consecutive,
 * so each destination tile is accumulated in registers and stored once
 * (once per PASS units, for rows with more).  Tiled over the block length
 * for cache residency.  Of the n_out output rows, those no unit names (an
 * all-zero matrix row) are cleared unless accumulating.
 *
 * The input rows may live in two arrays: rows [0, split) in `in`, rows
 * [split, n_in) in `tail` (a stripe's data and parity buffers), each with
 * its own row stride; the output rows likewise: [0, out_split) in `out`,
 * the rest in `out_tail`.  Input rows no unit names are never read, so an
 * output row may be such an input row (in-place repair).
 *
 * A chained program (a product of sparse factors) has n_scratch scratch
 * rows: unit inputs from n_in on and unit destinations from n_out on name
 * them.  They hold one tile each, are allocated per call, and are written
 * before they are read: the units run in program order, tile by tile.
 * Returns 0, or -1 when the scratch rows cannot be allocated (nothing was
 * written then). */
int gf_apply_units(const uint8_t *tables,   /* nunits * 32 */
                   const uint64_t *affine,  /* nunits */
                   const int32_t *unit_in,  /* source row per unit */
                   const int32_t *unit_out, /* destination row per unit */
                   int32_t nunits, int32_t n_in, int32_t n_out, int32_t n_scratch,
                   const uint8_t *in, int64_t in_stride,
                   const uint8_t *tail, int64_t tail_stride, int32_t split,
                   uint8_t *out, int64_t out_stride,
                   uint8_t *out_tail, int64_t out_tail_stride, int32_t out_split,
                   int64_t L, int accumulate)
{
    enum { PASS = 32, MARKS = 1024 };
    if (L <= 0)
        return 0;
    int64_t tile = GF_TILE;
    if (n_scratch) {
        tile = (GF_SCRATCH / n_scratch) & ~(int64_t)127;
        tile = tile < 256 ? 256 : tile > GF_TILE ? GF_TILE : tile;
    }
    const int64_t pitch = L < tile ? (L + 63) & ~(int64_t)63 : tile;
    uint8_t *block = NULL, *scratch = NULL;  /* scratch: block, cache-line aligned */
    if (n_scratch) {
        block = malloc((size_t)n_scratch * (size_t)pitch + 63);
        if (block == NULL)
            return -1;
        scratch = (uint8_t *)(((uintptr_t)block + 63) & ~(uintptr_t)63);
    }
    if (!accumulate) {
        unsigned char marks[MARKS];
        unsigned char *named = n_out <= MARKS ? marks : malloc((size_t)n_out);
        if (named == NULL) {
            free(block);
            return -1;
        }
        memset(named, 0, (size_t)n_out);
        for (int32_t u = 0; u < nunits; u++)
            if (unit_out[u] < n_out)
                named[unit_out[u]] = 1;
        for (int32_t row = 0; row < n_out; row++)
            if (!named[row])
                memset(gf_out_row(out, out_stride, out_tail, out_tail_stride,
                                  out_split, row), 0, (size_t)L);
        if (named != marks)
            free(named);
    }
    const int stream = !accumulate && (int64_t)n_out * L >= GF_STREAM_MIN;
    for (int64_t t0 = 0; t0 < L; t0 += tile) {
        int64_t len = t0 + tile < L ? tile : L - t0;
        int32_t u = 0;
        while (u < nunits) {
            int32_t row = unit_out[u];
            int is_out = row < n_out;
            uint8_t *op = is_out
                ? gf_out_row(out, out_stride, out_tail, out_tail_stride,
                             out_split, row) + t0
                : scratch + (int64_t)(row - n_out) * pitch;
            /* scratch rows start from zero; only output rows stream */
            int acc = is_out ? accumulate : 0;
            int st = stream && is_out && ((uintptr_t)op & 63) == 0;
            do {
                const uint8_t *ip[PASS];
                int n = 0;
                while (n < PASS && u + n < nunits && unit_out[u + n] == row) {
                    int32_t r = unit_in[u + n];
                    ip[n++] = r < split ? in + (int64_t)r * in_stride + t0
                        : r < n_in ? tail + (int64_t)(r - split) * tail_stride + t0
                        : scratch + (int64_t)(r - n_in) * pitch;
                }
                /* a row wider than one pass re-reads what it stored: only
                 * its last pass streams */
                int last = !(u + n < nunits && unit_out[u + n] == row);
                const uint8_t *tp = tables + (int64_t)u * 32;
                int64_t t = gf_pass(ip, tp, affine + u, n, op, len, acc, st && last);
                for (; t < len; t++) {
                    uint8_t a = acc ? op[t] : 0;
                    for (int k = 0; k < n; k++) {
                        uint8_t x = ip[k][t];
                        a ^= tp[32 * k + (x & 15)] ^ tp[32 * k + 16 + (x >> 4)];
                    }
                    op[t] = a;
                }
                u += n;
                acc = 1;
            } while (u < nunits && unit_out[u] == row);
        }
    }
#ifdef __AVX2__
    if (stream)
        _mm_sfence();  /* streamed stores are visible before the call returns */
#endif
    free(block);
    return 0;
}

#ifdef GF_PY_ENTRY
/* The second entry to the same kernel: a CPython function taking the
 * arrays through the buffer protocol, so one application is one C call
 * with no per-argument marshalling objects.  It is the application's
 * check: before writing a byte it refuses what the kernel cannot walk
 * and everything CodingPlan.apply_into refuses (row counts, widths, a
 * non-uint8 array, rows that are not contiguous, an `out` or `out_tail`
 * that is not a writeable ndarray), then releases the GIL around the
 * kernel, which allocates a chained program's scratch rows itself. */

static PyObject *gf_ndarray;  /* numpy.ndarray, looked up at module load */

static int gf_rows(PyObject *obj, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim == 2 && view->itemsize == 1
        && (view->format == NULL || strcmp(view->format, "B") == 0)
        && (view->shape[1] <= 1 || view->strides[1] == 1))
        return 0;
    PyBuffer_Release(view);
    PyErr_Format(PyExc_ValueError,
                 "%s must be a 2-D uint8 array with contiguous rows", what);
    return -1;
}

static PyObject *gf_py_apply(PyObject *self, PyObject *const *args,
                             Py_ssize_t nargs)
{
    (void)self;
    if (nargs != 5 && nargs != 6) {
        PyErr_Format(PyExc_TypeError,
                     "apply() takes 5 or 6 positional arguments (%zd given)", nargs);
        return NULL;
    }
    /* UnitProgram.head, taken once: the addresses of the program's four
     * arrays (it owns them and they never change), the unit count, the
     * matrix's input and output row counts and, for a chained program,
     * its scratch row count, the count of the dense units after its own
     * and the width from which the chain runs instead of them */
    PyObject *head = args[0];
    Py_ssize_t nhead = PyTuple_Check(head) ? PyTuple_GET_SIZE(head) : 0;
    if (nhead != 7 && nhead != 10) {
        PyErr_SetString(PyExc_TypeError, "head must be a UnitProgram.head tuple");
        return NULL;
    }
    const void *prog[4];
    for (int i = 0; i < 4; i++) {
        prog[i] = PyLong_AsVoidPtr(PyTuple_GET_ITEM(head, i));
        if (prog[i] == NULL && PyErr_Occurred())
            return NULL;
    }
    long dims[6] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < nhead - 4; i++) {
        dims[i] = PyLong_AsLong(PyTuple_GET_ITEM(head, 4 + i));
        if (dims[i] == -1 && PyErr_Occurred())
            return NULL;
        if (dims[i] < 0 || dims[i] > INT32_MAX / 2) {
            PyErr_SetString(PyExc_ValueError, "unit program size out of range");
            return NULL;
        }
    }
    int accumulate = PyObject_IsTrue(args[4]);
    if (accumulate < 0)
        return NULL;
    int split_output = nargs == 6 && args[5] != Py_None;
    for (int i = 3; i <= (split_output ? 5 : 3); i += 2) {
        int typed = PyObject_IsInstance(args[i], gf_ndarray);
        if (typed <= 0) {
            if (typed == 0)
                PyErr_Format(PyExc_ValueError, "%s must be a numpy array",
                             i == 3 ? "out" : "out_tail");
            return NULL;
        }
    }

    Py_buffer in, tl, out, otl;
    PyObject *result = NULL;
    int split_input = args[2] != Py_None;
    if (gf_rows(args[1], &in, "blocks") < 0)
        return NULL;
    if (split_input && gf_rows(args[2], &tl, "tail") < 0)
        goto release_in;
    if (gf_rows(args[3], &out, "out") < 0)
        goto release_tail;
    if (split_output && gf_rows(args[5], &otl, "out_tail") < 0)
        goto release_out;
    if (out.readonly || (split_output && otl.readonly)) {
        PyErr_Format(PyExc_ValueError, "%s is read-only",
                     out.readonly ? "out" : "out_tail");
        goto release_out_tail;
    }
    if (in.shape[1] != out.shape[1]
        || (split_input && tl.shape[1] != out.shape[1])
        || (split_output && otl.shape[1] != out.shape[1])) {
        PyErr_SetString(PyExc_ValueError,
                        "blocks, tail, out and out_tail must have the same width");
        goto release_out_tail;
    }
    if (in.shape[0] + (split_input ? tl.shape[0] : 0) != dims[1]
        || out.shape[0] + (split_output ? otl.shape[0] : 0) != dims[2]) {
        PyErr_Format(PyExc_ValueError,
                     "the program maps %ld input rows to %ld output rows",
                     dims[1], dims[2]);
        goto release_out_tail;
    }
    {
        const uint8_t *tail = split_input ? tl.buf : in.buf;
        int64_t tail_stride = split_input ? tl.strides[0] : in.strides[0];
        uint8_t *out_tail = split_output ? otl.buf : out.buf;
        int64_t out_tail_stride = split_output ? otl.strides[0] : out.strides[0];
        /* a narrow call runs the dense units: [first, first + count) */
        int narrow = dims[4] && out.shape[1] < dims[5];
        int64_t first = narrow ? dims[0] : 0;
        int32_t count = (int32_t)(narrow ? dims[4] : dims[0]);
        int32_t scratch = narrow ? 0 : (int32_t)dims[3];
        int failed;
        Py_BEGIN_ALLOW_THREADS
        failed = gf_apply_units((const uint8_t *)prog[0] + 32 * first,
                                (const uint64_t *)prog[1] + first,
                                (const int32_t *)prog[2] + first,
                                (const int32_t *)prog[3] + first, count,
                                (int32_t)dims[1], (int32_t)dims[2], scratch,
                                in.buf, in.strides[0], tail, tail_stride,
                                (int32_t)in.shape[0], out.buf, out.strides[0],
                                out_tail, out_tail_stride, (int32_t)out.shape[0],
                                out.shape[1], accumulate);
        Py_END_ALLOW_THREADS
        if (failed) {
            PyErr_NoMemory();
            goto release_out_tail;
        }
    }
    result = Py_None;
    Py_INCREF(result);
release_out_tail:
    if (split_output)
        PyBuffer_Release(&otl);
release_out:
    PyBuffer_Release(&out);
release_tail:
    if (split_input)
        PyBuffer_Release(&tl);
release_in:
    PyBuffer_Release(&in);
    return result;
}

static PyObject *gf_py_isa(PyObject *self, PyObject *ignored)
{
    (void)self; (void)ignored;
    return PyUnicode_FromString(GF_ISA);
}

static PyMethodDef gf_methods[] = {
    {"apply", (PyCFunction)(void (*)(void))gf_py_apply, METH_FASTCALL,
     "apply(head, blocks, tail, out, accumulate[, out_tail])"},
    {"isa", gf_py_isa, METH_NOARGS, "The vector rung this build runs."},
    {NULL, NULL, 0, NULL}
};

static int gf_exec(PyObject *module)
{
    (void)module;
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (numpy == NULL)
        return -1;
    gf_ndarray = PyObject_GetAttrString(numpy, "ndarray");
    Py_DECREF(numpy);
    return gf_ndarray == NULL ? -1 : 0;
}

static PyModuleDef_Slot gf_slots[] = {{Py_mod_exec, gf_exec}, {0, NULL}};

static struct PyModuleDef gf_module = {
    PyModuleDef_HEAD_INIT, "gfkern", NULL, 0, gf_methods, gf_slots,
    NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit_gfkern(void) { return PyModuleDef_Init(&gf_module); }
#endif
"""

#: The ladder, tried top down: ``(compiler flags, /proc/cpuinfo features
#: the build needs)``.  ``-march=native`` needs nothing — the compiler
#: enables only what the host has — and yields whichever ``isa`` that is;
#: the explicit rungs below it serve when that build fails its self-test
#: (or the compiler does not know the flag) and are skipped unless the CPU
#: lists every feature.  Without ``-mssse3``/NEON, GCC expands
#: ``__builtin_shuffle`` to scalar code no faster than the NumPy paths.
_RUNGS = (
    (("-O3", "-march=native"), ()),
    (("-O3", "-mavx2", "-mgfni"), ("avx2", "gfni")),
    (("-O3", "-mavx2"), ("avx2",)),
    (("-O3", "-mssse3"), ("ssse3",)),
    (("-O3",), ()),
)

_ARGTYPES = [
    ctypes.c_void_p,  # tables
    ctypes.c_void_p,  # affine
    ctypes.c_void_p,  # unit_in
    ctypes.c_void_p,  # unit_out
    ctypes.c_int32,   # nunits
    ctypes.c_int32,   # n_in
    ctypes.c_int32,   # n_out
    ctypes.c_int32,   # n_scratch
    ctypes.c_void_p,  # in
    ctypes.c_int64,   # in_stride
    ctypes.c_void_p,  # tail
    ctypes.c_int64,   # tail_stride
    ctypes.c_int32,   # split
    ctypes.c_void_p,  # out
    ctypes.c_int64,   # out_stride
    ctypes.c_void_p,  # out_tail
    ctypes.c_int64,   # out_tail_stride
    ctypes.c_int32,   # out_split
    ctypes.c_int64,   # L
    ctypes.c_int,     # accumulate
]

#: the kernel's cache tile (a chained program's is at most this); the
#: self-test straddles it
_TILE = 32768
#: a call that overwrites at least this many output bytes stores its
#: 64-byte aligned output rows non-temporally (``GF_STREAM_MIN``)
STREAM_BYTES = 1 << 20
#: calls whose rows are narrower than this run a chained program's dense
#: units, unless the chain needs at most half of them.  Measured on the
#: ``gfni-avx512`` rung: chains that save a third of the units (the MSR
#: encode and write, the MSR → RS merges) break even between 768-byte and
#: 4 KiB rows and lose up to 1.3× at 512 bytes, and a chain that saves more
#: than half (the RS → MSR call that rebuilds a group) wins at every width
CHAIN_MIN_WIDTH = 4096

_lock = threading.Lock()
_cached: list = []  # [(fn_or_None, info)] once resolved

#: what cannot-build-or-load looks like, for either entry
_BUILD_ERRORS = (OSError, subprocess.SubprocessError, ImportError)

#: the switches as ``os.environ`` stores them (bytes on POSIX, upper-cased
#: str on Windows), so an unset one costs a dict probe
KILL_SWITCH = os.environ.encodekey("REPRO_GF_NATIVE")
BACKEND_SWITCH = os.environ.encodekey("REPRO_GF_BACKEND")
#: the mapping ``os.environ`` itself reads and writes, keyed as above
SWITCHES = os.environ._data


def switch(key) -> str | None:
    """The current value of an environment switch (``None``: unset).

    Read per call — tests and probes flip the switches mid-process through
    ``os.environ`` — but from the mapping ``os.environ`` itself reads:
    ``os.environ.get`` raises and catches a ``KeyError`` for every unset
    name, which at a few µs per kernel application is most of the call.
    """
    raw = SWITCHES.get(key)
    return None if raw is None else os.environ.decodevalue(raw)


def affine_matrices(mul_table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``x → c·x`` as the 8×8 bit matrix ``vgf2p8affineqb`` reads, one uint64 per ``c``.

    Multiplication by a constant is GF(2)-linear: bit ``i`` of ``c·x`` is
    the parity of ``x`` masked by row ``i`` of a matrix whose column ``j``
    is ``c·2^j`` (where ``x`` has bit ``j`` set, ``c·2^j`` is XORed in).
    The instruction takes row ``i`` from byte ``7 - i`` of the qword.
    """
    coeffs = np.asarray(coeffs, np.intp)
    bit = np.arange(8)
    basis = mul_table[coeffs[:, None], 1 << bit]  # (n, j) = c·2^j
    rows = ((basis[:, None, :] >> bit[:, None] & 1) << bit).sum(axis=2)  # (n, i)
    return np.ascontiguousarray(rows[:, ::-1], np.uint8).view("<u8").ravel()


class UnitProgram:
    """A matrix lowered for :func:`run`: per-unit constants + row indices.

    ``tables`` is ``(units, 32)`` uint8 (16 low-nibble then 16
    high-nibble products per unit) and ``affine`` the unit's
    :func:`affine_matrices` entry — a rung reads whichever it multiplies
    with; ``unit_in``/``unit_out`` are int32 row indices, the units of one
    destination row consecutive.  ``shape`` is the matrix's ``(output
    rows, input rows)``: the entry refuses arrays with other row counts,
    and clears the output rows no unit names (all-zero matrix rows) unless
    accumulating.  A chained program (:func:`build_chain_program`) has
    ``scratch`` rows, named by input indices from ``shape[1]`` on and
    destination indices from ``shape[0]`` on, and after its ``nunits``
    units the ``narrow`` units of its dense matrix (none when the chain runs
    at every width), which calls narrower than :data:`CHAIN_MIN_WIDTH`
    run instead.  ``head`` is the entry's
    first argument — the four arrays' addresses, the unit count, the input
    and output row counts and, for a chained program, the scratch row
    count, the dense unit count and :data:`CHAIN_MIN_WIDTH` — taken once:
    the arrays are immutable and live as long as the program.
    """

    __slots__ = (
        "tables", "affine", "unit_in", "unit_out", "shape", "scratch", "narrow", "nunits", "head",
    )  # fmt: skip

    def __init__(self, tables, affine, unit_in, unit_out, shape, scratch=0, narrow=0):
        self.tables = tables
        self.affine = affine
        self.unit_in = unit_in
        self.unit_out = unit_out
        self.shape = shape
        self.scratch = scratch
        self.narrow = narrow
        self.nunits = len(unit_in) - narrow
        self.head = (
            tables.ctypes.data,
            affine.ctypes.data,
            unit_in.ctypes.data,
            unit_out.ctypes.data,
            self.nunits,
            shape[1],
            shape[0],
        ) + ((scratch, narrow, CHAIN_MIN_WIDTH) if scratch else ())


def _lower(outs, ins, coeffs, mul_table, shape, scratch=0, narrow=0) -> UnitProgram:
    """Units in program order → a :class:`UnitProgram`; every row index must
    name a row of the ``shape`` matrix or a scratch row (the entry holds the
    arrays to the shape, and the kernel to the indices)."""
    outs = np.ascontiguousarray(outs, np.int32)
    ins = np.ascontiguousarray(ins, np.int32)
    n_out, n_in = shape
    if len(outs) and not (
        0 <= outs.min() <= outs.max() < n_out + scratch
        and 0 <= ins.min() <= ins.max() < n_in + scratch
    ):
        raise ValueError(f"unit row indices fall outside a ({n_out}, {n_in}) matrix")
    cs = np.asarray(coeffs, np.intp)
    nib = np.arange(16)
    tables = np.ascontiguousarray(mul_table[cs[:, None], np.concatenate([nib, nib << 4])])
    return UnitProgram(tables, affine_matrices(mul_table, cs), ins, outs, shape, scratch, narrow)


def build_unit_program(
    out_rows: np.ndarray,
    in_rows: np.ndarray,
    coeffs: np.ndarray,
    mul_table: np.ndarray,
    n_out: int,
    n_in: int,
) -> UnitProgram:
    """Lower a sparse coefficient list of an ``(n_out, n_in)`` matrix to a
    unit program sorted by output row; every row index must lie inside
    that shape."""
    order = np.argsort(out_rows, kind="stable")
    return _lower(
        np.asarray(out_rows)[order], np.asarray(in_rows)[order],
        np.asarray(coeffs)[order], mul_table, (n_out, n_in),
    )  # fmt: skip


def build_chain_program(factors, mul_table: np.ndarray) -> UnitProgram:
    """Lower the product ``F_s ⋯ F_1`` of sparse ``factors`` (``[F_1, …,
    F_s]``) to one chained unit program, run tile by tile.

    Each factor row becomes a scratch row (an output row, for the last
    factor) with one unit per nonzero coefficient, except where nothing
    need be computed: an all-zero row (or one reading only such rows)
    costs nothing and later factors skip it, and a row that is one of its
    inputs unchanged (a lone coefficient 1) is that input, renamed.  A last
    row that is a scratch row unchanged takes that row's units when
    nothing else reads it, and a copy unit otherwise — or when it is an
    input row.  The scratch rows left are numbered in program order.

    A chain's extra rows cost the kernel more than its saved units on
    narrow rows unless it saves more than half of them, so a chain that
    needs more than half the product's own (dense) units carries those
    after its own, and calls narrower than :data:`CHAIN_MIN_WIDTH` run
    them instead.
    """
    n_in, n_out = factors[0].shape[1], factors[-1].shape[0]
    # where each entry of the running vector lives: a source index (input
    # rows, then scratch rows from n_in) or -1, known zero
    where = np.arange(n_in)
    outs, ins, coeffs = [], [], []
    scratch = 0
    last = len(factors) - 1
    for stage, f in enumerate(factors):
        f = np.where(where >= 0, np.asarray(f, np.uint8), 0)
        rows, cols = np.nonzero(f)
        counts = np.bincount(rows, minlength=len(f))
        single = counts[rows] == 1
        alias = np.zeros(len(f), bool)
        alias[rows[single]] = f[rows[single], cols[single]] == 1
        if stage == last:
            # a renamed output row needs a copy unit; the kept ones move below
            computed = counts > 0
            dest = np.arange(len(f))
        else:
            computed = (counts > 0) & ~alias
            dest = np.full(len(f), -1)
            dest[computed] = n_out + scratch + np.arange(computed.sum())
            scratch += int(computed.sum())
        keep = computed[rows]
        outs.append(dest[rows[keep]])
        ins.append(where[cols[keep]])
        coeffs.append(f[rows[keep], cols[keep]])
        if stage < last:
            renamed = np.full(len(f), -1)
            renamed[alias] = where[cols[alias[rows]]]
            where = np.where(computed, dest - n_out + n_in, renamed)
    outs, ins, coeffs = np.concatenate(outs), np.concatenate(ins), np.concatenate(coeffs)
    # an output row copying a scratch row nothing else reads takes its units
    refs = np.bincount(ins[ins >= n_in] - n_in, minlength=scratch)
    copies = np.nonzero((ins >= n_in) & (coeffs == 1) & (outs < n_out))[0]
    tally = np.bincount(outs[outs < n_out], minlength=n_out)
    drop = []
    for u in copies:
        s = ins[u] - n_in
        if refs[s] == 1 and tally[outs[u]] == 1:
            outs[outs == n_out + s] = outs[u]
            drop.append(u)
    keep = np.ones(len(outs), bool)
    keep[drop] = False
    outs, ins, coeffs = outs[keep], ins[keep], coeffs[keep]
    # number the scratch rows left in program order (np.unique would import
    # numpy.ma)
    used = np.flatnonzero(np.bincount(outs[outs >= n_out] - n_out, minlength=scratch))
    number = np.zeros(scratch + 1, np.intp)
    number[used] = np.arange(len(used))
    outs = np.where(outs >= n_out, n_out + number[np.maximum(outs - n_out, 0)], outs)
    ins = np.where(ins >= n_in, n_in + number[np.maximum(ins - n_in, 0)], ins)
    if not len(used):
        return _lower(outs, ins, coeffs, mul_table, (n_out, n_in))
    from .matrix import matmul

    product = factors[0]
    for f in factors[1:]:
        product = matmul(f, product)
    rows, cols = np.nonzero(product)
    if 2 * len(outs) <= len(rows):  # the chain wins at every width
        return _lower(outs, ins, coeffs, mul_table, (n_out, n_in), len(used))
    # the product's own units follow, for calls narrower than CHAIN_MIN_WIDTH
    return _lower(
        np.concatenate([outs, rows]), np.concatenate([ins, cols]),
        np.concatenate([coeffs, product[rows, cols]]), mul_table, (n_out, n_in),
        len(used), len(rows),
    )  # fmt: skip


def _cpu_features() -> frozenset[str] | None:
    """The CPU's feature names as ``/proc/cpuinfo`` lists them (``None``: unknown)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return frozenset(line.partition(":")[2].split())
    except OSError:
        pass
    return None


def _abi_tag() -> str:
    """The running interpreter's extension ABI (``SOABI``)."""
    return sysconfig.get_config_var("SOABI") or ""


def _python_cflags() -> tuple[str, ...]:
    """Compile flags that add the fastcall entry; ``()`` without ``Python.h``."""
    include = sysconfig.get_path("include")
    if not include or not os.path.exists(os.path.join(include, "Python.h")):
        return ()
    # pyconfig.h may live apart (multiarch distributions)
    dirs = dict.fromkeys((include, sysconfig.get_path("platinclude") or include))
    return ("-DGF_PY_ENTRY", *(f"-I{d}" for d in dirs))


def _cache_path(flags: tuple[str, ...], cc: str) -> str:
    """Where the build for this (source, compiler, flags, CPU, interpreter) lives.

    The CPU is part of the key because ``-march=native`` output is only
    legal on a host with the same features: a temp dir shared between
    unlike hosts (container layer, NFS, CI cache) must give each its own
    build, not a SIGILL.  The interpreter ABI is part of it because the
    fastcall entry is an extension module: two Pythons sharing a temp dir
    must never import each other's.
    """
    cpu = _cpu_features()
    host = " ".join(sorted(cpu)) if cpu is not None else platform.processor()
    key = hashlib.sha256(
        "\x00".join((_C_SOURCE, cc, *flags, platform.machine(), host, _abi_tag())).encode()
    ).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), f"repro-gf-native-{key}", "gfkern.so")


def _ctypes_entry(cfn):
    """``gf_apply_units`` behind the fastcall entry's signature and checks."""

    def apply(head, blocks, tail, out, accumulate, out_tail=None):
        tables, affine, unit_in, unit_out, nunits, n_in, n_out = head[:7]
        scratch, narrow, wide = head[7:] if len(head) > 7 else (0, 0, 0)
        for name, a in (("blocks", blocks), ("tail", tail), ("out", out), ("out_tail", out_tail)):
            if (a is not None or name in ("blocks", "out")) and not (
                isinstance(a, np.ndarray)
                and a.ndim == 2
                and a.dtype == np.uint8
                and (a.flags.c_contiguous or a.strides[1] == 1)
            ):
                raise ValueError(f"{name} must be a 2-D uint8 array with contiguous rows")
        for name, a in (("out", out), ("out_tail", out_tail)):
            if a is not None and not a.flags.writeable:
                raise ValueError(f"{name} is read-only")
        width = out.shape[1]
        if any(a is not None and a.shape[1] != width for a in (blocks, tail, out_tail)):
            raise ValueError("blocks, tail, out and out_tail must have the same width")
        if len(blocks) + (0 if tail is None else len(tail)) != n_in or len(out) + (
            0 if out_tail is None else len(out_tail)
        ) != n_out:
            raise ValueError(f"the program maps {n_in} input rows to {n_out} output rows")
        if narrow and width < wide:  # a narrow call runs the dense units
            tables, affine = tables + 32 * nunits, affine + 8 * nunits
            unit_in, unit_out = unit_in + 4 * nunits, unit_out + 4 * nunits
            nunits, scratch = narrow, 0
        rows, stride = blocks.ctypes.data, blocks.strides[0]
        more, more_stride = (rows, stride) if tail is None else (tail.ctypes.data, tail.strides[0])
        dest, dest_stride = out.ctypes.data, out.strides[0]
        rest, rest_stride = (
            (dest, dest_stride) if out_tail is None else (out_tail.ctypes.data, out_tail.strides[0])
        )
        if cfn(
            tables, affine, unit_in, unit_out, nunits, n_in, n_out, scratch,
            rows, stride, more, more_stride, blocks.shape[0],
            dest, dest_stride, rest, rest_stride, out.shape[0],
            width, 1 if accumulate else 0,
        ):  # fmt: skip
            raise MemoryError("no memory for the program's scratch rows")

    return apply


def _compile(flags: tuple[str, ...], cc: str, py_cflags: tuple[str, ...] = ()):
    """Compile (or reuse) the kernel for one flag set → ``(fn, isa)``; raises on failure.

    ``fn`` is ``apply(head, blocks, tail | None, out, accumulate[,
    out_tail])``, ``head``
    a :attr:`UnitProgram.head`, whichever entry serves: with
    ``py_cflags`` (:func:`_python_cflags`) the build is also an extension
    module and ``fn`` its fastcall function; without, the plain shared
    object's ``gf_apply_units`` bound through :mod:`ctypes` and wrapped to
    the same signature.
    """
    flags = flags + py_cflags
    so = _cache_path(flags, cc)
    if not os.path.exists(so):
        cache = os.path.dirname(so)
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
    if py_cflags:
        loader = importlib.machinery.ExtensionFileLoader("gfkern", so)
        mod = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location("gfkern", so, loader=loader)
        )
        loader.exec_module(mod)
        return mod.apply, mod.isa()
    lib = ctypes.CDLL(so)
    fn = lib.gf_apply_units
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int
    lib.gf_isa.argtypes = []
    lib.gf_isa.restype = ctypes.c_char_p
    return _ctypes_entry(fn), lib.gf_isa().decode()


def _self_test(fn) -> bool:
    """Byte-compare the compiled kernel against the multiplication table.

    One block length past the cache tile plus two of the widest vector
    iterations (2 × 64 B) plus a ragged end, and column prefixes of it —
    row-strided views — down to shorter than one vector: every rung runs
    its full-width body, its narrower steps, its tail and the tile seam.
    Each length is checked plain, with the input split over two arrays,
    with the output split over two arrays, through a two-stage chained
    program (scratch rows, a renamed input, a row taking a scratch row's
    units, a skipped zero row; its dense units at the narrow lengths, and
    without them the chain at every length), and accumulating; output
    lands in an
    unaligned strided window whose all-zero matrix row must read zero and
    whose surroundings must stay untouched.  Last, one output past the
    streaming threshold, 64-byte aligned and misaligned by 16.  A
    miscompiled or mis-targeted build is dropped rather than trusted.
    """
    from .arithmetic import GF

    mt = GF.get().mul_table()

    def product(m, x):
        out = np.zeros((len(m), x.shape[1]), np.uint8)
        for i, j in zip(*np.nonzero(m)):
            out[i] ^= mt[m[i, j]][x[j]]
        return out

    rng = np.random.default_rng(20260808)
    m = rng.integers(1, 256, (3, 4), dtype=np.uint8)
    m[0, 2] = 0
    m[2, :] = 0  # an all-zero output row the kernel must skip
    # two sparse factors: F1 row 1 renames input 2, row 3 is zero; F2 row 1
    # takes F1 row 4's units, row 2 is zero
    f1 = np.zeros((5, 4), np.uint8)
    for row, cols in ((0, [0, 1]), (2, [1, 2]), (4, [0, 3])):
        f1[row, cols] = rng.integers(1, 256, 2)
    f1[1, 2] = 1
    f2 = np.zeros((3, 5), np.uint8)
    f2[0, :4] = rng.integers(1, 256, 4)
    f2[1, 4] = 1
    L = _TILE + 2 * 128 + 45
    blocks = rng.integers(0, 256, (4, L), dtype=np.uint8)
    expect, chained = product(m, blocks), product(f2, product(f1, blocks))
    outs, ins = np.nonzero(m)
    prog = build_unit_program(outs, ins, m[outs, ins], mt, 3, 4)
    chain = build_chain_program([f1, f2], mt)
    # the same chain without its dense units runs the chain at every width
    n = chain.nunits
    chain_only = UnitProgram(
        chain.tables[:n], chain.affine[:n], chain.unit_in[:n], chain.unit_out[:n],
        chain.shape, chain.scratch,
    )  # fmt: skip
    poison = 0xA5
    frame = np.empty((3, L + 16), np.uint8)
    for n in (L, 2 * 128 + 45, 45):
        view, got = blocks[:, :n], frame[:, 7 : 7 + n]

        def only_wrote(rows01):
            return (
                (got[:2] == rows01).all()
                and not got[2].any()
                and (frame[:, :7] == poison).all()
                and (frame[:, 7 + n :] == poison).all()
            )

        for program, want, split, cut in (
            (prog, expect, 4, 3), (prog, expect, 1, 3), (prog, expect, 4, 1),
            (chain, chained, 4, 3), (chain_only, chained, 4, 3),
        ):  # fmt: skip
            frame[:] = poison
            tail, out_tail = view[split:] if split < 4 else None, got[cut:] if cut < 3 else None
            run(fn, program, view[:split], got[:cut], False, tail, out_tail)
            if not only_wrote(want[:2, :n]):
                return False
            run(fn, program, view, got, True)  # x ^ x == 0
            if not only_wrote(0):
                return False
    # past the streaming threshold, the output rows 64-byte aligned and not:
    # x0 and x0 ^ x1 (the products are checked above; this checks the stores)
    width = STREAM_BYTES // 3 + 45
    wide = np.tile(blocks[:2], -(-width // L))[:, :width]
    want = wide[0] ^ wide[1]
    xor = build_unit_program(np.array([0, 1, 1]), np.array([0, 0, 1]), np.ones(3, np.intp), mt, 3, 2)
    frame = aligned_empty((3, width + 128 - width % 64))
    for lo in (0, 16):
        frame[:] = poison
        got = frame[:, lo : lo + width]
        run(fn, xor, wide, got, False)
        if not (
            (got[0] == wide[0]).all()
            and (got[1] == want).all()
            and not got[2].any()
            and (frame[:, :lo] == poison).all()
            and (frame[:, lo + width :] == poison).all()
        ):
            return False
    return True


def aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous uint8 array of ``shape``, starting on a
    64-byte boundary when it holds at least :data:`STREAM_BYTES`.

    The kernel streams the output rows of such a call only where a row
    starts on a cache line; NumPy aligns large arrays to 16 bytes.  A
    smaller array is a plain ``np.empty`` — its rows are never streamed.
    """
    nbytes = math.prod(shape)
    if nbytes < STREAM_BYTES:
        return np.empty(shape, np.uint8)
    raw = np.empty(nbytes + 63, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].reshape(shape)


def run(
    fn,
    program: UnitProgram,
    blocks: np.ndarray,
    out: np.ndarray,
    accumulate: bool,
    tail: np.ndarray | None = None,
    out_tail: np.ndarray | None = None,
) -> None:
    """Invoke the kernel on uint8 ``blocks`` (+ ``tail``) → ``out`` (+ ``out_tail``).

    Every array is a 2-D uint8 array with contiguous rows (any row
    stride), together holding the program's input rows, and ``out`` a
    writeable ndarray of its output rows, all of one width — the entry
    raises :class:`ValueError` for anything else before writing a byte.
    ``tail`` holds the input rows from ``len(blocks)`` on when the input
    is split over two arrays, ``out_tail`` the output rows from
    ``len(out)`` on when the output is.
    """
    fn(program.head, blocks, tail, out, accumulate, out_tail)


def _resolve() -> tuple:
    """Walk :data:`_RUNGS` → ``(fn or None, native_info dict)``."""
    cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if cc is None:
        return None, {"absent": "no compiler"}
    cpu = _cpu_features()
    py_cflags = _python_cflags()
    # a fastcall build that fails costs the entry, never the rung
    entries = (py_cflags, ()) if py_cflags else ((),)
    passed_over = []
    for flags, needs in _RUNGS:
        if needs and (cpu is None or not cpu.issuperset(needs)):
            continue
        name = " ".join(flags)
        for entry_cflags in entries:
            try:
                fn, isa = _compile(flags, cc, entry_cflags)
                break
            except _BUILD_ERRORS:
                which = " for the fastcall entry" if entry_cflags else ""
                passed_over.append(f"compile failed ({name}){which}")
        else:
            continue
        if _self_test(fn):
            info = {
                "isa": isa,
                "flags": name,
                "compiler": cc,
                "entry": "fastcall" if entry_cflags else "ctypes",
            }
            if passed_over:
                info["passed_over"] = passed_over
            return fn, info
        passed_over.append(f"self-test failed on {isa} ({name})")
    return None, {"absent": "; ".join(passed_over)}


def _resolved() -> tuple:
    if not _cached:
        with _lock:
            if not _cached:
                _cached.append(_resolve())
    return _cached[0]


def kernel():
    """The compiled kernel entry point, or ``None`` when unavailable.

    The compile attempt happens once per process and is cached; the
    ``REPRO_GF_NATIVE=0`` kill-switch is honoured on every call so tests
    can disable the backend without restarting the interpreter.
    """
    if switch(KILL_SWITCH) == "0":
        return None
    return _resolved()[0]


def native_available() -> bool:
    """Whether the runtime-compiled kernel is usable on this host."""
    return kernel() is not None


def native_info() -> dict:
    """Which kernel serves the ``native`` backend, or why none does.

    ``{"isa": "gfni-avx512" | "gfni-avx2" | "avx2" | "generic", "flags",
    "compiler", "entry": "fastcall" | "ctypes"}`` — plus ``"passed_over"``,
    the rungs above it that failed to compile or self-test and any
    fastcall build that failed — or ``{"absent": reason}``.
    """
    if switch(KILL_SWITCH) == "0":
        return {"absent": "disabled by REPRO_GF_NATIVE=0"}
    return dict(_resolved()[1])
