"""Every rung of the ``native`` kernel's vector-width ladder, through both entries.

``repro.gf.native`` compiles one C source whose inner loop the
preprocessor chooses from the compile flags (GFNI affine multiply at 512
or 256 bits, AVX2 nibble shuffle, 16-byte generic) and which is entered
either as a CPython fastcall function (arrays through the buffer
protocol; needs ``Python.h``) or through :mod:`ctypes`.  Production only
ever loads the first rung that passes, behind the fastcall entry when it
builds; this module builds **each** entry of ``native._RUNGS`` behind
**each** entry explicitly, skips what the running CPU cannot execute or
the host cannot build, and byte-compares the rest against
:func:`repro.gf.apply_to_blocks_naive` over the shapes where a vector
kernel goes wrong: lengths around every vector width and the 32 KiB tile
seam, both accumulate modes, the input split over two arrays,
row-strided views, and the output aliasing an input row the matrix never
reads.  Either entry must refuse what the kernel cannot walk before
writing a byte, take read-only input, and release the GIL.

CPU-independent parts: the affine-matrix table is checked exhaustively
bit by bit, the build cache is shown to be keyed by the CPU and the
interpreter ABI, and the load-time gate is shown to reach every region
of the kernel and to fall down the ladder instead of raising.
"""

import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF, CodingPlan, apply_to_blocks_naive, native_info
from repro.gf import native

MT = GF.get().mul_table()
CC = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
RUNG_IDS = [" ".join(flags) for flags, _ in native._RUNGS]
ENTRIES = ("fastcall", "ctypes")

#: around every vector step (32/64/128 B) and the kernel's cache tile
LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129, 255, 257, 32767, 32768, 32769]

_loaded: dict = {}  # (rung id, entry) -> (fn, isa) or a skip reason


def _load(rung, entry):
    name = " ".join(rung[0])
    if (name, entry) not in _loaded:
        flags, needs = rung
        cpu = native._cpu_features()
        py_cflags = native._python_cflags() if entry == "fastcall" else ()
        if CC is None:
            got = "no C compiler"
        elif needs and (cpu is None or not cpu.issuperset(needs)):
            got = f"this CPU lacks {sorted(set(needs) - (cpu or set()))}"
        elif entry == "fastcall" and not py_cflags:
            got = "no Python.h for this interpreter"
        else:
            try:
                got = native._compile(flags, CC, py_cflags)
            except native._BUILD_ERRORS as exc:
                got = f"does not compile here ({type(exc).__name__})"
        _loaded[name, entry] = got
    return _loaded[name, entry]


@pytest.fixture(
    scope="module",
    params=[(rung, entry) for entry in ENTRIES for rung in native._RUNGS],
    # the bare flag set is the ctypes entry, as it was before there were two
    ids=[name if entry == "ctypes" else f"{entry} {name}" for entry in ENTRIES for name in RUNG_IDS],
)
def rung_fn(request):
    rung, entry = request.param
    got = _load(rung, entry)
    if isinstance(got, str):
        pytest.skip(f"rung {rung[0]} via {entry}: {got}")
    return got[0]


@pytest.fixture(scope="module", params=ENTRIES)
def entry_fn(request):
    """The plain ``-O3`` build behind each entry (what the entry tests need)."""
    got = _load(native._RUNGS[-1], request.param)
    if isinstance(got, str):
        pytest.skip(f"{request.param} entry: {got}")
    return got[0]


# -- the affine table, no CPU involved ------------------------------------------


def test_affine_matrices_equal_the_multiplication_table_exhaustively():
    """All 256 × 256 (c, x): M_c applied to x bit by bit is mul_table[c, x].

    Row ``i`` of ``M_c`` sits in byte ``7 - i`` of the qword and output
    bit ``i`` is the parity of ``row & x`` — the instruction's definition,
    spelled out in Python.
    """
    matrices = native.affine_matrices(MT, np.arange(256))
    assert matrices.dtype == np.uint64 and matrices.shape == (256,)
    parity = [bin(v).count("1") & 1 for v in range(256)]
    for c in range(256):
        rows = [(int(matrices[c]) >> (8 * (7 - i))) & 0xFF for i in range(8)]
        for x in range(256):
            y = sum(parity[rows[i] & x] << i for i in range(8))
            assert y == MT[c, x], (c, x)


def test_unit_program_carries_both_constant_forms_sorted_by_output_row():
    m = np.array([[0, 3, 0], [7, 0, 1], [0, 0, 0]], np.uint8)
    outs, ins = np.nonzero(m)
    # hand the entries in reverse: the lowering sorts by output row
    prog = native.build_unit_program(outs[::-1], ins[::-1], m[outs, ins][::-1], MT, 3, 3)
    assert prog.unit_out.tolist() == [0, 1, 1] and prog.nunits == 3
    coeffs = [int(m[o, i]) for o, i in zip(prog.unit_out, prog.unit_in)]
    assert sorted(coeffs[1:]) == [1, 7] and coeffs[0] == 3
    for k, c in enumerate(coeffs):
        assert prog.tables[k, :16].tolist() == MT[c, :16].tolist()
        assert prog.tables[k, 16:].tolist() == MT[c, np.arange(16) << 4].tolist()
    assert prog.affine.tolist() == native.affine_matrices(MT, coeffs).tolist()
    assert prog.shape == (3, 3)
    assert prog.head == (
        prog.tables.ctypes.data, prog.affine.ctypes.data,
        prog.unit_in.ctypes.data, prog.unit_out.ctypes.data, 3, 3, 3,
    )


def test_a_unit_program_stays_inside_its_matrix():
    """The entry holds the arrays to the program's row counts; the lowering
    holds the program's row indices to them."""
    outs, ins, coeffs = np.array([0, 2]), np.array([1, 0]), np.array([3, 5])
    with pytest.raises(ValueError, match="outside"):
        native.build_unit_program(outs, ins, coeffs, MT, 2, 2)  # output row 2 of 2
    with pytest.raises(ValueError, match="outside"):
        native.build_unit_program(outs, ins, coeffs, MT, 3, 1)  # input row 1 of 1
    assert native.build_unit_program(outs, ins, coeffs, MT, 3, 2).shape == (3, 2)


# -- each rung against the executable specification -----------------------------


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 5),
    cols=st.integers(1, 9),
    n=st.sampled_from(LENGTHS),
    sparsity=st.sampled_from([0.0, 0.3, 0.9]),
    accumulate=st.booleans(),
    split=st.booleans(),
    strided=st.booleans(),
    alias=st.booleans(),
)
def test_rung_matches_naive(rung_fn, seed, rows, cols, n, sparsity, accumulate, split, strided, alias):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    m[rng.random(m.shape) < sparsity] = 0
    alias = alias and cols > rows
    if alias:
        # the output is the first `rows` input rows, which the matrix never reads
        m[:, :rows] = 0
    pad, lo = (13, 6) if strided else (0, 0)
    store = rng.integers(0, 256, (cols, n + pad), dtype=np.uint8)
    out_store = store if alias else rng.integers(0, 256, (rows, n + pad), dtype=np.uint8)
    blocks = store[:, lo : lo + n]
    out = out_store[:rows, lo : lo + n]
    stores_before = store.copy(), out_store.copy()
    before, base = blocks.copy(), out.copy()
    # with an aliased output the head array must hold all of it
    cut = int(rng.integers(rows if alias else 1, cols + 1)) if split else cols
    head, tail = (blocks[:cut], blocks[cut:].copy()) if cut < cols else (blocks, None)

    outs, ins = np.nonzero(m)
    prog = native.build_unit_program(outs, ins, m[outs, ins], MT, rows, cols)
    # an all-zero matrix row is cleared by the kernel itself
    native.run(rung_fn, prog, head, out, accumulate, tail)

    product = apply_to_blocks_naive(m, before)
    assert np.array_equal(out, base ^ product if accumulate else product)
    # nothing but the output rows' column window moved
    out[:] = base
    assert np.array_equal(store, stores_before[0])
    assert np.array_equal(out_store, stores_before[1])


def _sparse_factor(rng, rows, cols, sparsity):
    """A random factor with the rows a chain lowers specially: renamed inputs
    (a lone coefficient 1) and zero rows."""
    f = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    f[rng.random(f.shape) < sparsity] = 0
    for i in range(rows):
        if rng.random() < 0.3:
            f[i] = 0
            f[i, rng.integers(cols)] = 1
    return f


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    sizes=st.lists(st.integers(1, 7), min_size=2, max_size=5),
    n=st.sampled_from([1, 65, 4097, 9000, 40000]),
    sparsity=st.sampled_from([0.2, 0.6, 0.9]),
    accumulate=st.booleans(),
)
def test_rung_runs_chained_programs(rung_fn, seed, sizes, n, sparsity, accumulate):
    """A product of random sparse factors, lowered to one chained program,
    is the product applied factor by factor — across the tile seams (a
    chain's tile shrinks with its scratch rows), and below
    ``CHAIN_MIN_WIDTH``, where the program's dense units run."""
    rng = np.random.default_rng(seed)
    factors = [_sparse_factor(rng, b, a, sparsity) for a, b in zip(sizes, sizes[1:])]
    blocks = rng.integers(0, 256, (sizes[0], n), dtype=np.uint8)
    want = blocks
    for f in factors:
        want = apply_to_blocks_naive(f, want)
    prog = native.build_chain_program(factors, MT)
    assert prog.shape == (sizes[-1], sizes[0])
    base = rng.integers(0, 256, (sizes[-1], n), dtype=np.uint8)
    out = base.copy()
    native.run(rung_fn, prog, blocks, out, accumulate)
    assert np.array_equal(out, base ^ want if accumulate else want)


def test_rows_wider_than_one_pass_of_units(rung_fn):
    """An output row with more units than the kernel folds per pass (32)."""
    rng = np.random.default_rng(4)
    m = rng.integers(1, 256, (2, 75), dtype=np.uint8)
    blocks = rng.integers(0, 256, (75, 389), dtype=np.uint8)
    outs, ins = np.nonzero(m)
    prog = native.build_unit_program(outs, ins, m[outs, ins], MT, 2, 75)
    for accumulate in (False, True):
        out = np.full((2, 389), 0x5A, np.uint8)
        native.run(rung_fn, prog, blocks, out, accumulate)
        want = apply_to_blocks_naive(m, blocks)
        assert np.array_equal(out, want ^ 0x5A if accumulate else want)


def test_every_rung_passes_the_load_time_self_test(rung_fn):
    assert native._self_test(rung_fn)


def test_report_which_rungs_ran():
    """Print the ladder as exercised here (CI's ``native`` leg reads it with ``-s``)."""
    seen = []
    for entry in ENTRIES:
        for rung, name in zip(native._RUNGS, RUNG_IDS):
            got = _load(rung, entry)
            seen.append(got if isinstance(got, str) else got[1])
            print(
                f"native rung [{name}] entry={entry}: "
                + (f"skipped, {got}" if isinstance(got, str) else f"ran isa={got[1]}")
            )
    print(f"native serves: {native_info()}")
    if CC is not None:
        assert "generic" in seen, "the plain -O3 rung must build wherever a compiler exists"


# -- what an entry refuses, accepts and lets run beside it -----------------------


def _program(m):
    outs, ins = np.nonzero(m)
    return native.build_unit_program(outs, ins, m[outs, ins], MT, *m.shape)


REFUSED = {
    "blocks-rows-not-contiguous": lambda b, t, o: (b[:, ::2], None, o[:, :32]),
    "out-rows-not-contiguous": lambda b, t, o: (b[:, :32], None, o[:, ::2]),
    "tail-rows-not-contiguous": lambda b, t, o: (b[:2, :32], t[:, ::2], o[:, :32]),
    "blocks-uint16": lambda b, t, o: (b.view(np.uint16), None, o[:, :32]),
    "out-uint16": lambda b, t, o: (b[:, :32], None, o.view(np.uint16)),
    "blocks-1d": lambda b, t, o: (b[0], None, o),
    "out-3d": lambda b, t, o: (b, None, o[None]),
    "out-1d": lambda b, t, o: (b, None, o[0]),
    "tail-1d": lambda b, t, o: (b[:2], t[0], o),
    "tail-narrower": lambda b, t, o: (b[:2], t[:, :63], o),
    "tail-wider": lambda b, t, o: (b[:2, :63], t, o[:, :63]),
    "blocks-narrower-than-out": lambda b, t, o: (b[:, :63], None, o),
    "out-read-only": lambda b, t, o: (b, None, _frozen(o)),
}


def _frozen(a):
    view = a[:]
    view.setflags(write=False)
    return view


@pytest.mark.parametrize("case", REFUSED)
@pytest.mark.parametrize("accumulate", [False, True])
def test_an_entry_refuses_what_the_kernel_cannot_walk_and_writes_nothing(entry_fn, case, accumulate):
    rng = np.random.default_rng(9)
    m = rng.integers(1, 256, (2, 4), dtype=np.uint8)
    blocks = rng.integers(0, 256, (4, 64), dtype=np.uint8)
    tail = blocks[2:].copy()
    out = np.full((2, 64), 0xA5, np.uint8)
    before = blocks.copy(), tail.copy()
    head, more, dest = REFUSED[case](blocks, tail, out)
    with pytest.raises((ValueError, BufferError)):
        native.run(entry_fn, _program(m), head, dest, accumulate, more)
    assert (out == 0xA5).all()
    assert np.array_equal(blocks, before[0]) and np.array_equal(tail, before[1])


OUT_TAIL_REFUSED = {
    "out-tail-wrong-rows": lambda o, x: (o[:1], x),
    "out-tail-wrong-width": lambda o, x: (o[:1], x[1:, :63]),
    "out-tail-read-only": lambda o, x: (o[:1], _frozen(o[1:])),
    "out-tail-rows-not-contiguous": lambda o, x: (o[:1, :32], o[1:, ::2]),
    "out-tail-uint16": lambda o, x: (o[:1, :32], o[1:].view(np.uint16)),
}


@pytest.mark.parametrize("case", OUT_TAIL_REFUSED)
@pytest.mark.parametrize("accumulate", [False, True])
def test_an_entry_refuses_an_out_tail_the_kernel_cannot_walk(entry_fn, case, accumulate):
    """The output split over two arrays is held to what the output is: the
    program's row count, one width, writeable uint8 rows."""
    rng = np.random.default_rng(14)
    m = rng.integers(1, 256, (2, 4), dtype=np.uint8)
    blocks = rng.integers(0, 256, (4, 64), dtype=np.uint8)
    out = np.full((2, 64), 0xA5, np.uint8)
    extra = np.full((2, 64), 0xA5, np.uint8)  # one row too many with out[:1]
    dest, dest_tail = OUT_TAIL_REFUSED[case](out, extra)
    width = dest.shape[1]
    with pytest.raises((ValueError, BufferError)):
        native.run(entry_fn, _program(m), blocks[:, :width], dest, accumulate, None, dest_tail)
    assert (out == 0xA5).all() and (extra == 0xA5).all()


def test_an_entry_splits_its_output_over_two_arrays(entry_fn):
    """``out_tail`` continues the output rows, with its own row stride."""
    rng = np.random.default_rng(15)
    m = rng.integers(0, 256, (4, 5), dtype=np.uint8)
    blocks = rng.integers(0, 256, (5, 777), dtype=np.uint8)
    want = apply_to_blocks_naive(m, blocks)
    out = np.empty((1, 777), np.uint8)
    frame = np.full((6, 800), 0xA5, np.uint8)
    native.run(entry_fn, _program(m), blocks, out, False, None, frame[::2, 3:780])
    assert np.array_equal(out[0], want[0]) and np.array_equal(frame[::2, 3:780], want[1:])
    frame[::2, 3:780] = 0xA5
    assert (frame == 0xA5).all()


@pytest.mark.parametrize("short", ["out", "blocks", "tail"])
def test_an_entry_refuses_views_shorter_than_its_program(entry_fn, short):
    """A short view of a larger buffer: the entry knows the program's row
    counts and refuses before the kernel writes, or reads, past the view.

    A 3-output program into ``frame[:2]`` would write row 2 of the frame; a
    2-input program over one row would read the next row of its buffer.
    """
    rng = np.random.default_rng(13)
    source = rng.integers(0, 256, (3, 64), dtype=np.uint8)
    frame = np.full((4, 64), 0xA5, np.uint8)
    m = rng.integers(1, 256, (3, 2), dtype=np.uint8)  # 2 inputs -> 3 outputs
    head, tail, out = {
        "out": (source[:2], None, frame[:2]),
        "blocks": (source[:1], None, frame[:3]),
        "tail": (source[:1], source[1:1], frame[:3]),
    }[short]
    before = source.copy()
    with pytest.raises(ValueError):
        native.run(entry_fn, _program(m), head, out, False, tail)
    assert (frame == 0xA5).all()
    assert np.array_equal(source, before)


def test_an_entry_takes_read_only_input(entry_fn):
    rng = np.random.default_rng(10)
    m = rng.integers(1, 256, (2, 4), dtype=np.uint8)
    blocks = rng.integers(0, 256, (4, 300), dtype=np.uint8)
    want = apply_to_blocks_naive(m, blocks)
    frozen = _frozen(blocks)
    assert not frozen.flags.writeable
    for head, tail in ((frozen, None), (frozen[:1], frozen[1:])):
        out = np.empty((2, 300), np.uint8)
        native.run(entry_fn, _program(m), head, out, False, tail)
        assert np.array_equal(out, want)
    # bytes behind a memoryview are as read-only as it gets
    raw = np.frombuffer(blocks.tobytes(), np.uint8).reshape(4, 300)
    assert not raw.flags.writeable
    native.run(entry_fn, _program(m), raw, out, True)
    assert not out.any()


def test_an_entry_repairs_in_place(entry_fn):
    """``out`` is the rows of the stored stripe the matrix never reads."""
    rng = np.random.default_rng(11)
    stripe = rng.integers(0, 256, (6, 1000), dtype=np.uint8)
    # a column window of a wider buffer: the tail's row stride is its own
    parity = rng.integers(0, 256, (3, 1024), dtype=np.uint8)[:, 5:1005]
    m = rng.integers(1, 256, (2, 9), dtype=np.uint8)
    m[:, [1, 4]] = 0  # the lost rows
    want = apply_to_blocks_naive(m, np.concatenate([stripe, parity]))
    keep = stripe.copy()
    native.run(entry_fn, _program(m), stripe, stripe[1:5:3], False, parity)
    assert np.array_equal(stripe[[1, 4]], want)
    rest = [0, 2, 3, 5]
    assert np.array_equal(stripe[rest], keep[rest])


def test_an_entry_releases_the_gil(entry_fn):
    """Two threads, 1 MB blocks: the second runs *while* the first is in the kernel.

    With the switch interval out of reach the interpreter never takes the
    GIL from a running thread, so the main thread's marks can only land
    before the worker's last one if the worker gave the GIL up by itself
    — which nothing in its loop does but the kernel call.
    """
    rng = np.random.default_rng(12)
    m = rng.integers(1, 256, (3, 6), dtype=np.uint8)
    blocks = rng.integers(0, 256, (6, 1 << 20), dtype=np.uint8)
    out = np.empty((3, 1 << 20), np.uint8)
    prog = _program(m)
    log = []

    def worker():
        for _ in range(40):
            native.run(entry_fn, prog, blocks, out, False)
            log.append("kernel")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(600.0)
    try:
        thread = threading.Thread(target=worker)
        thread.start()
        for _ in range(40):
            log.append("main")
        thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert log.count("kernel") == 40
    assert "kernel" in log[log.index("main") :], "the kernel call held the GIL throughout"
    assert np.array_equal(out[:, :4096], apply_to_blocks_naive(m, blocks[:, :4096]))


def test_the_fastcall_entry_counts_its_arguments():
    got = _load(native._RUNGS[-1], "fastcall")
    if isinstance(got, str):
        pytest.skip(got)
    for args in ((1, 2, 3), (1, 2, 3, 4, 5, 6, 7)):
        with pytest.raises(TypeError, match="5 or 6 positional"):
            got[0](*args)
    with pytest.raises((TypeError, OverflowError)):
        got[0](("tables", 0, 0, 0, 0, 0, 0), None, None, None, False)


# -- the load-time gate ---------------------------------------------------------


def _corrupting(fn, row, col):
    """``fn`` with one wrong output byte at (row, col), where the call is long enough."""

    def broken(*args):
        fn(*args)
        out = args[3]
        if col < out.shape[1]:
            out[row, col] ^= 1

    return broken


@pytest.mark.parametrize(
    "col",
    [3, 100, 150, 290, native._TILE - 1, native._TILE + 70, native._TILE + 2 * 128 + 44],
    ids=["first-bytes", "second-vector", "third-vector", "short-tail", "tile-end", "second-tile", "ragged-end"],
)
def test_self_test_reaches_every_region_of_the_kernel(col):
    fn = native.kernel()
    if fn is None:
        pytest.skip("no native kernel on this host")
    assert native._self_test(fn)
    for row in (0, 1):
        assert not native._self_test(_corrupting(fn, row, col)), (row, col)


#: the calls of the load-time gate that run the kernel's newer paths
SELF_TEST_CALLS = {
    "two-stage": lambda args: len(args[0]) > 7 and args[3].shape[1] >= args[0][9],
    "two-stage-narrow": lambda args: len(args[0]) > 7 and args[0][8] and args[3].shape[1] < args[0][9],
    "two-stage-narrow-chain": lambda args: (
        len(args[0]) > 7 and not args[0][8] and args[3].shape[1] < args[0][9]
    ),
    "split-output": lambda args: args[5] is not None,
    "streamed-aligned": lambda args: _streams(args) and args[3].ctypes.data % 64 == 0,
    "streamed-misaligned": lambda args: _streams(args) and args[3].ctypes.data % 64 == 16,
}


def _streams(args):
    out = args[3]
    return not args[4] and out.shape[0] * out.shape[1] >= native.STREAM_BYTES


@pytest.mark.parametrize("calls", SELF_TEST_CALLS)
def test_self_test_reaches_the_chained_split_and_streamed_calls(calls):
    """One wrong byte in the output of only those calls fails the gate."""
    fn = native.kernel()
    if fn is None:
        pytest.skip("no native kernel on this host")
    hit, seen = SELF_TEST_CALLS[calls], []

    def broken(*args):
        fn(*args)
        if hit(args):
            out = args[3] if args[5] is None else args[5]
            out[0, out.shape[1] // 2] ^= 1
            seen.append(out.shape)

    assert not native._self_test(broken)
    assert seen, f"the self-test makes no {calls} call"


def test_self_test_notices_a_touched_zero_row():
    fn = native.kernel()
    if fn is None:
        pytest.skip("no native kernel on this host")
    assert not native._self_test(_corrupting(fn, 2, 10))


@pytest.fixture
def fresh_resolution(monkeypatch):
    """Let ``kernel()`` resolve again inside the test, and forget it after."""
    monkeypatch.delenv("REPRO_GF_NATIVE", raising=False)
    monkeypatch.delenv("REPRO_GF_BACKEND", raising=False)
    monkeypatch.setattr(native, "_cached", [])


def _plan_still_correct():
    rng = np.random.default_rng(6)
    m = rng.integers(0, 256, (3, 5), dtype=np.uint8)
    blocks = rng.integers(0, 256, (5, 5000), dtype=np.uint8)
    assert np.array_equal(CodingPlan(m).apply(blocks), apply_to_blocks_naive(m, blocks))


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_a_failing_rung_falls_to_the_next_one(fresh_resolution, monkeypatch):
    real, calls = native._self_test, []

    def first_fails(fn):
        calls.append(fn)
        return len(calls) > 1 and real(fn)

    monkeypatch.setattr(native, "_self_test", first_fails)
    info = native_info()
    assert native.kernel() is not None and len(calls) == 2
    assert info["flags"] != RUNG_IDS[0]
    assert info["passed_over"][0].startswith("self-test failed on ")
    assert RUNG_IDS[0] in info["passed_over"][0]
    _plan_still_correct()
    assert CodingPlan(np.ones((1, 2), np.uint8)).backend_for(1 << 17) == "native"


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_the_fallback_rung_alone_serves(fresh_resolution, monkeypatch):
    monkeypatch.setattr(native, "_RUNGS", native._RUNGS[-1:])
    assert native_info()["isa"] == "generic" and native_info()["flags"] == "-O3"
    _plan_still_correct()


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_no_passing_rung_means_numpy_backends_not_an_error(fresh_resolution, monkeypatch):
    monkeypatch.setattr(native, "_self_test", lambda fn: False)
    assert native.kernel() is None and not native.native_available()
    reason = native_info()["absent"]
    assert reason.count("self-test failed on") >= 1 and "-O3" in reason
    assert CodingPlan(np.ones((1, 2), np.uint8)).backend_for(1 << 17) == "pair"
    monkeypatch.setenv("REPRO_GF_BACKEND", "native")  # forced, absent: falls back
    _plan_still_correct()


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_the_entry_that_serves_is_disclosed(fresh_resolution):
    info = native_info()
    assert info["entry"] == ("fastcall" if native._python_cflags() else "ctypes")
    assert "passed_over" not in info or "fastcall" not in " ".join(info["passed_over"])


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_without_headers_the_ctypes_entry_keeps_the_rung(fresh_resolution, monkeypatch):
    with_headers = native_info()
    monkeypatch.setattr(native, "_cached", [])
    monkeypatch.setattr(native, "_python_cflags", lambda: ())
    info = native_info()
    assert info["entry"] == "ctypes" and "passed_over" not in info
    assert (info["isa"], info["flags"]) == (with_headers["isa"], with_headers["flags"])
    _plan_still_correct()
    assert CodingPlan(np.ones((1, 2), np.uint8)).backend_for(1) == "native"


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_a_failed_fastcall_build_costs_the_entry_not_the_rung(fresh_resolution, monkeypatch, tmp_path):
    """Headers that do not compile: same rung through ctypes, and it says so."""
    (tmp_path / "Python.h").write_text("#error not this interpreter's headers\n")
    monkeypatch.setattr(native, "_python_cflags", lambda: ("-DGF_PY_ENTRY", f"-I{tmp_path}"))
    info = native_info()
    assert info["entry"] == "ctypes" and info["flags"] == RUNG_IDS[0]
    assert info["passed_over"] == [f"compile failed ({RUNG_IDS[0]}) for the fastcall entry"]
    _plan_still_correct()


def test_no_compiler_is_reported_not_raised(fresh_resolution, monkeypatch):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert native.kernel() is None
    assert native_info() == {"absent": "no compiler"}
    _plan_still_correct()


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_a_compiler_that_fails_is_reported_per_rung(fresh_resolution, monkeypatch):
    def refuse(*args, **kwargs):
        raise subprocess.CalledProcessError(1, args[0])

    monkeypatch.setattr(tempfile, "tempdir", tempfile.mkdtemp(prefix="gfkern-empty-"))
    monkeypatch.setattr(native.subprocess, "run", refuse)
    assert native.kernel() is None
    assert native_info()["absent"].startswith(f"compile failed ({RUNG_IDS[0]})")


def test_kill_switch_is_honoured_on_every_call(monkeypatch):
    monkeypatch.delenv("REPRO_GF_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_GF_NATIVE", raising=False)
    plan = CodingPlan(np.ones((1, 2), np.uint8))
    before = plan.backend_for(1 << 17)
    monkeypatch.setenv("REPRO_GF_NATIVE", "0")
    assert native.kernel() is None
    assert native_info() == {"absent": "disabled by REPRO_GF_NATIVE=0"}
    assert plan.backend_for(1 << 17) == "pair"
    monkeypatch.delenv("REPRO_GF_NATIVE")
    assert plan.backend_for(1 << 17) == before


# -- the on-disk cache is per CPU ----------------------------------------------


def test_cache_key_separates_hosts_with_different_cpu_features(monkeypatch):
    flags = ("-O3", "-march=native")
    here = native._cache_path(flags, "cc")
    assert here == native._cache_path(flags, "cc")
    assert here != native._cache_path(("-O3",), "cc") != native._cache_path(flags, "gcc")
    monkeypatch.setattr(native, "_cpu_features", lambda: frozenset({"ssse3", "avx2"}))
    narrow = native._cache_path(flags, "cc")
    monkeypatch.setattr(native, "_cpu_features", lambda: frozenset({"ssse3", "avx2", "gfni", "avx512bw"}))
    wide = native._cache_path(flags, "cc")
    assert len({here, narrow, wide}) == 3


def test_cache_key_separates_interpreters_and_entries(monkeypatch):
    """Two Pythons sharing a temp dir never import each other's extension."""
    flags = ("-O3",)
    here = native._cache_path(flags, "cc")
    paths = {here, native._cache_path(flags + ("-DGF_PY_ENTRY", "-I/usr/include/python3"), "cc")}
    for tag in ("cpython-310-x86_64-linux-gnu", "cpython-313t-x86_64-linux-gnu"):
        monkeypatch.setattr(native, "_abi_tag", lambda tag=tag: tag)
        paths.add(native._cache_path(flags, "cc"))
    assert len(paths) == 4
    monkeypatch.undo()
    assert native._cache_path(flags, "cc") == here


@pytest.mark.skipif(CC is None, reason="needs a C compiler")
def test_a_shared_temp_dir_gives_each_cpu_its_own_build(monkeypatch, tmp_path):
    """A host never dlopens what a host with other features compiled."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    built = []
    for features in ({"ssse3"}, {"ssse3", "avx2", "gfni"}):
        monkeypatch.setattr(native, "_cpu_features", lambda f=frozenset(features): f)
        fn, isa = native._compile(("-O3",), CC)
        assert isa == "generic" and native._self_test(fn)
        built.append(native._cache_path(("-O3",), CC))
    assert built[0] != built[1]
    assert sorted(p.name for p in tmp_path.glob("repro-gf-native-*/gfkern.so")) == ["gfkern.so"] * 2
