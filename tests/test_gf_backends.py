"""Every kernel backend must be byte-identical to the naive spec.

:class:`repro.gf.CodingPlan` executes through a registry of backends
(``translate`` / ``pair`` / ``native``) selected per
application by a measured-crossover heuristic and forceable via
``REPRO_GF_BACKEND``.  The backends are pure reassociations of the same
GF(2^8) sums, so the contract is absolute: for any coefficient matrix,
any block shape (including empty and ragged-odd), any forced backend,
and both ``apply_into`` accumulate modes, the output must equal
:func:`repro.gf.apply_to_blocks_naive` bit for bit.

Hypothesis drives the shape/sparsity/backend space; targeted tests pin
native-first dispatch and, under ``REPRO_GF_NATIVE=0``, the NumPy
ladder's `PAIR_MIN_COLS` boundary, both sides of
every crossover, the switches' read-per-application meaning, batch
fold-vs-loop duality, the forced-backend fallback ladder, and ``_scaled_rows``'
in-place scaling (bounded allocation, safe across threads).
"""

import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.gf import GF, CodingPlan, apply_to_blocks_naive
from repro.gf import native as native_mod
from repro.gf.backends import (
    BACKEND_NAMES,
    PAIR_MIN_COLS,
    available_backends,
    forced_backend,
)

from tests.test_kernel_equivalence import all_codes

#: None = heuristic selection; names = forced via REPRO_GF_BACKEND
FORCINGS = [None, *BACKEND_NAMES]
FORCING_IDS = ["auto" if f is None else f for f in FORCINGS]


@contextlib.contextmanager
def _scoped_env(key, value):
    """Set (``None``: clear) one environment switch for the block."""
    old = os.environ.get(key)
    if value is None:
        os.environ.pop(key, None)
    else:
        os.environ[key] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = old


def forced(name):
    """Scope the REPRO_GF_BACKEND override (None clears it)."""
    return _scoped_env("REPRO_GF_BACKEND", name)


def native_killed():
    """Scope ``REPRO_GF_NATIVE=0``: the host as if it had no compiler."""
    return _scoped_env("REPRO_GF_NATIVE", "0")


@pytest.fixture(autouse=True)
def _clean_env():
    """Tests must not leak a forced backend into the rest of the suite, nor
    drop the one a CI leg forces for every suite it runs after this one."""
    with _scoped_env("REPRO_GF_BACKEND", os.environ.get("REPRO_GF_BACKEND")):
        yield


def _skip_unavailable(backend):
    if backend == "native" and not native_mod.native_available():
        pytest.skip("native backend unavailable (no working C compiler)")


# -- the property net --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
    ncols=st.sampled_from([0, 1, 2, 3, 7, 64, 257, 1025, 4097]),
    backend=st.sampled_from(FORCINGS),
    sparsity=st.floats(0.0, 1.0),
)
def test_every_backend_matches_naive(rows, cols, seed, ncols, backend, sparsity):
    """Random matrices (incl. all-zero), ragged/empty blocks, all forcings."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    m[rng.random(m.shape) < sparsity] = 0
    blocks = rng.integers(0, 256, (cols, ncols), dtype=np.uint8)
    expect = apply_to_blocks_naive(m, blocks)
    with forced(backend):
        plan = CodingPlan(m)
        got = plan.apply(blocks)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert np.array_equal(got, expect)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ncols=st.sampled_from([1, 7, 129, 4097]),
    backend=st.sampled_from(FORCINGS),
    accumulate=st.booleans(),
)
def test_apply_into_accumulate_modes(seed, ncols, backend, accumulate):
    """Donated-buffer path: plain write defines out, accumulate XOR-folds."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 256, (5, 7), dtype=np.uint8)
    blocks = rng.integers(0, 256, (7, ncols), dtype=np.uint8)
    expect = apply_to_blocks_naive(m, blocks)
    base = rng.integers(0, 256, (5, ncols), dtype=np.uint8)
    with forced(backend):
        plan = CodingPlan(m)
        out = base.copy()
        ret = plan.apply_into(blocks, out, accumulate=accumulate)
    assert ret is out
    assert np.array_equal(out, (base ^ expect) if accumulate else expect)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_registered_codes_round_trip_under_forced_backend(backend):
    """Each backend must carry every registered code end to end."""
    _skip_unavailable(backend)
    rng = np.random.default_rng(3)
    with forced(backend):
        for code in all_codes():
            L = code.subpacketization * 3  # odd multiple of l
            data = rng.integers(0, 256, (code.k, L), dtype=np.uint8)
            coded = code.encode(data)
            if hasattr(code, "parity_matrix"):
                assert np.array_equal(
                    coded[code.k :], apply_to_blocks_naive(code.parity_matrix, data)
                ), f"{backend}: {code.name} parity diverged from naive"
            lost = int(rng.integers(code.n))
            shards = {i: coded[i] for i in range(code.n) if i != lost}
            assert np.array_equal(code.repair(lost, shards).block, coded[lost]), (
                f"{backend}: {code.name} repair of node {lost} diverged"
            )


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_wide_blocks_past_tile_boundaries(backend):
    """One column past every tile size: 64 Ki + 1 exercises all tail paths."""
    _skip_unavailable(backend)
    rng = np.random.default_rng(19)
    m = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    blocks = rng.integers(0, 256, (6, (1 << 16) + 1), dtype=np.uint8)
    expect = apply_to_blocks_naive(m, blocks)
    with forced(backend):
        assert np.array_equal(CodingPlan(m).apply(blocks), expect)


# -- dispatch boundaries -----------------------------------------------------


def test_zero_matrix_under_every_forcing():
    """nnz == 0 short-circuits to translate (pure zero-fill) everywhere."""
    m = np.zeros((4, 6), dtype=np.uint8)
    blocks = np.arange(6 * 65, dtype=np.uint8).reshape(6, 65)
    for backend in FORCINGS:
        with forced(backend):
            plan = CodingPlan(m)
            assert plan.backend_for(65) == "translate"
            assert not plan.apply(blocks).any()


def test_unknown_forced_backend_is_rejected():
    """A name outside the registry is refused, ``gather`` (a deleted
    backend) included: forcing it must not silently run another one."""
    for name in ("simd9000", "gather"):
        with forced(name):
            with pytest.raises(ValueError, match=name):
                forced_backend()
            plan = CodingPlan(np.array([[3]], dtype=np.uint8))
            with pytest.raises(ValueError, match=name):
                plan.apply(np.arange(7, dtype=np.uint8).reshape(1, 7))


def test_choose_backend_heuristic_shape():
    """Native first where the kernel exists; the crossover ladder where not."""
    rng = np.random.default_rng(12)
    plan = CodingPlan(rng.integers(1, 256, (4, 4), dtype=np.uint8))
    widths = (8, 1 << 12, PAIR_MIN_COLS - 1, PAIR_MIN_COLS, 1 << 20)
    with forced(None):
        with native_killed():
            ladder = [plan.backend_for(n) for n in widths]
        unforced = [plan.backend_for(n) for n in widths]
    assert ladder == ["translate", "translate", "translate", "pair", "pair"]
    assert unforced == (["native"] * 5 if native_mod.native_available() else ladder)
    assert available_backends()[-2:] == ("pair", "translate")


#: one column count on each side of every crossover: a single column, the
#: old tiny-block threshold (1024 columns of the 2×4 matrix below),
#: PAIR_MIN_COLS, and pair's odd trailing column, which goes through
#: translate
CROSSOVER_WIDTHS = [1, 1024, 1025, 5000, PAIR_MIN_COLS - 1, PAIR_MIN_COLS, PAIR_MIN_COLS + 1]


@pytest.mark.parametrize("killed", [False, True], ids=["native-present", "REPRO_GF_NATIVE=0"])
@pytest.mark.parametrize("backend", FORCINGS, ids=FORCING_IDS)
def test_both_sides_of_every_crossover(killed, backend):
    """Whichever side of a threshold the width falls, the chosen backend is
    one this host has and its output, plain and accumulated through a
    ``tail``, is the naive kernel's.  Without the kernel a single column
    runs ``translate``; a forced ``pair`` finishes an odd width's last
    column itself."""
    m = np.array([[9, 14, 13, 11], [14, 9, 11, 13]], np.uint8)
    rng = np.random.default_rng(48)
    with forced(backend), (native_killed() if killed else contextlib.nullcontext()):
        plan = CodingPlan(m)
        for ncols in CROSSOVER_WIDTHS:
            blocks = rng.integers(0, 256, (4, ncols), dtype=np.uint8)
            want = apply_to_blocks_naive(m, blocks)
            chosen = plan.backend_for(ncols)
            assert chosen in available_backends(), (ncols, chosen)
            if ncols == 1 and (killed or backend == "translate"):
                assert chosen == "translate"
            if backend == "pair" and ncols == PAIR_MIN_COLS + 1:
                assert chosen == "pair"
            assert np.array_equal(plan.apply(blocks), want), (ncols, chosen)
            base = rng.integers(0, 256, (2, ncols), dtype=np.uint8)
            out = base.copy()
            plan.apply_into(blocks[:1], out, accumulate=True, tail=blocks[1:])
            assert np.array_equal(out, base ^ want), (ncols, chosen)


def test_pair_odd_column_is_safe_across_threads():
    """Threads applying one plan through ``pair`` at an odd width all get
    the naive kernel's bytes: the last column is finished without the
    per-plan scratch that ``translate`` reuses across applications."""
    rng = np.random.default_rng(33)
    m = rng.integers(1, 256, (4, 6), dtype=np.uint8)
    blocks = [rng.integers(0, 256, (6, 33), dtype=np.uint8) for _ in range(4)]
    want = [apply_to_blocks_naive(m, b) for b in blocks]
    mismatches = []

    def work(i):
        for _ in range(1500):
            if not np.array_equal(plan.apply(blocks[i]), want[i]):
                mismatches.append(i)

    with forced("pair"):
        plan = CodingPlan(m)
        assert plan.backend_for(33) == "pair"
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not mismatches, f"{len(mismatches)} of 6000 applications diverged"


@pytest.mark.parametrize("ncols", [4097, 200_001])
def test_translate_is_safe_across_threads(ncols):
    """Threads applying one plan through ``translate`` all get the naive
    kernel's bytes: each application scales its rows in an array it owns,
    not in a buffer kept on the shared plan."""
    rng = np.random.default_rng(34)
    m = rng.integers(1, 256, (4, 6), dtype=np.uint8)
    blocks = [rng.integers(0, 256, (6, ncols), dtype=np.uint8) for _ in range(4)]
    want = [apply_to_blocks_naive(m, b) for b in blocks]
    mismatches = []

    def work(i):
        for _ in range(300):
            if not np.array_equal(plan.apply(blocks[i]), want[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often: more interleavings
    try:
        with forced("translate"):
            plan = CodingPlan(m)
            assert plan.backend_for(ncols) == "translate"
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not mismatches, f"{len(mismatches)} of 1200 applications diverged"


def test_each_switch_is_read_per_application(monkeypatch):
    """Flip a switch between two applications of one plan: the next one follows.

    The NumPy backends are spied on at their runners; the native backend at
    the kernel entry itself, which a warm application calls straight from
    ``apply_into``.
    """
    ran = []
    for name in ("pair", "translate"):
        real = getattr(CodingPlan, f"_run_{name}")

        def spy(self, *args, _real=real, _name=name):
            ran.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(CodingPlan, f"_run_{name}", spy)
    rng = np.random.default_rng(31)
    m = rng.integers(1, 256, (3, 6), dtype=np.uint8)
    blocks = rng.integers(0, 256, (6, 64), dtype=np.uint8)
    want = apply_to_blocks_naive(m, blocks)
    plan = CodingPlan(m)
    out = np.empty((3, 64), np.uint8)
    switches = ("REPRO_GF_NATIVE", "REPRO_GF_BACKEND")
    for key in switches:
        monkeypatch.delenv(key, raising=False)
    first = "native" if native_mod.native_available() else "translate"
    if first == "native":
        real_entry, info = native_mod._cached[0]

        def entry(*args):
            ran.append("native")
            return real_entry(*args)

        monkeypatch.setattr(native_mod, "_cached", [(entry, info)])
    for setting, expect in (
        ({}, first),
        ({"REPRO_GF_NATIVE": "0"}, "translate"),
        ({}, first),
        ({"REPRO_GF_BACKEND": "translate"}, "translate"),
        ({}, first),
        ({"REPRO_GF_BACKEND": "pair"}, "pair"),
        ({"REPRO_GF_BACKEND": "native", "REPRO_GF_NATIVE": "0"}, "translate"),
        ({"REPRO_GF_BACKEND": "native"}, first),
    ):
        for key in switches:
            if key in setting:
                monkeypatch.setenv(key, setting[key])
            else:
                monkeypatch.delenv(key, raising=False)
        del ran[:]
        out[:] = 0xEE
        plan.apply_into(blocks, out)
        assert ran == [expect], (setting, ran)
        assert np.array_equal(out, want)


# -- batch duality -----------------------------------------------------------


def _per_stripe_reference(m, stacked):
    return np.stack([apply_to_blocks_naive(m, blocks) for blocks in stacked])


def _folded_reference(m, stacked):
    # the batch laid side by side on the column axis is one wide application
    batch, rows, ncols = stacked.shape
    wide = np.ascontiguousarray(stacked.transpose(1, 0, 2)).reshape(rows, batch * ncols)
    res = apply_to_blocks_naive(m, wide).reshape(m.shape[0], batch, ncols)
    return np.ascontiguousarray(res.transpose(1, 0, 2))


@pytest.mark.parametrize(
    "reference", [_per_stripe_reference, _folded_reference], ids=["loop", "fold"]
)
def test_apply_batch_matches_per_stripe_loop(reference):
    """apply_batch equals the reference kernel stripe by stripe, and so
    equals one wide application of the batch folded into the column axis."""
    rng = np.random.default_rng(21)
    m = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    m[rng.random(m.shape) < 0.3] = 0
    plan = CodingPlan(m)
    stacked = rng.integers(0, 256, (3, 6, 129), dtype=np.uint8)
    got = plan.apply_batch(stacked)
    assert got.shape == (3, 4, 129)
    assert np.array_equal(got, reference(m, stacked))
    # donated output buffer is written and returned
    out = np.empty((3, 4, 129), dtype=np.uint8)
    assert plan.apply_batch(stacked, out=out) is out
    assert np.array_equal(out, got)
    # degenerate batches
    assert plan.apply_batch(stacked[:1]).shape == (1, 4, 129)
    assert plan.apply_batch(np.empty((0, 6, 129), np.uint8)).shape == (0, 4, 129)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_apply_batch_under_forced_backends(backend):
    _skip_unavailable(backend)
    rng = np.random.default_rng(22)
    m = rng.integers(0, 256, (5, 8), dtype=np.uint8)
    stacked = rng.integers(0, 256, (4, 8, 515), dtype=np.uint8)
    with forced(backend):
        got = CodingPlan(m).apply_batch(stacked)
    for b in range(4):
        assert np.array_equal(got[b], apply_to_blocks_naive(m, stacked[b]))


# -- scratch reuse (the _scaled_rows zero-copy fix) --------------------------


def test_scaled_rows_scratch_reuse_bounded_alloc():
    """``_scaled_rows`` scales the caller's rows in place; temporaries stay O(tile).

    The historical implementation round-tripped every group through
    ``tobytes() → bytes.translate → np.frombuffer`` — two full output
    copies per group per application — and a later one scaled into a
    per-plan buffer that threads sharing the plan overwrote.  The rows
    ``_run_translate`` hands in are already a fresh gather, so they are the
    scratch: scaled where they lie, nothing kept on the plan.  NumPy's
    ``take`` still buffers one tile of index conversion internally, so the
    invariant is that peak temporary memory is bounded by the (constant)
    ``_SCALE_TILE`` — it must NOT scale with the input size.
    """
    rng = np.random.default_rng(23)
    plan = CodingPlan(rng.integers(2, 256, (4, 8), dtype=np.uint8))
    # one tile of intp index conversion plus slack — the O(1) bound
    bound = CodingPlan._SCALE_TILE * np.dtype(np.intp).itemsize * 2

    def peak(nbytes):
        rows = rng.integers(0, 256, (4, nbytes // 4), dtype=np.uint8)
        want = GF.get().mul(7, rows)
        tracemalloc.start()
        scaled = plan._scaled_rows(7, rows)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert scaled is rows
        assert np.array_equal(scaled, want)
        return peak

    small = peak(1 << 17)
    large = peak(1 << 21)  # 16x the input ...
    assert small < bound, f"scaled rows allocated {small} bytes"
    assert large < bound, f"... must not move the peak: {large} bytes"
    assert not hasattr(plan, "_scratch")


def test_scaled_rows_identity_coefficient_is_passthrough():
    plan = CodingPlan(np.array([[1, 2]], dtype=np.uint8))
    rows = np.arange(64, dtype=np.uint8).reshape(2, 32)
    assert plan._scaled_rows(1, rows) is rows
    assert np.array_equal(rows, np.arange(64, dtype=np.uint8).reshape(2, 32))


def test_compiling_plans_does_not_import_numpy_ma():
    """A plan's coefficient groups are listed without ``np.unique``, whose
    masked-array check imports ``numpy.ma`` (15–23 ms the first time in a
    process): a fresh store writes and repairs without it."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.fusion import ECFusion\n"
        "store = ECFusion(6, 3)\n"
        "store.write('s', np.arange(6 * 4608, dtype=np.uint8).reshape(6, 4608))\n"
        "store.recover('s', 1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )  # fmt: skip
    assert out.stdout.strip() == "False"
