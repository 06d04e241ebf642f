"""The one converter across the {rs, msr, lrc, fr} code-family graph.

:meth:`FusionTransformer.convert` owns all 12 ordered edges: RS↔MSR ride
the intermediary-parity highway, every other edge is a journalled full
re-encode.  These tests pin what the chaos sweep and the cost model rely
on:

* clean conversions are byte-identical to encoding the target directly,
  and cost exactly what :func:`repro.codes.families.conversion` prices;
* a lost data group is decoded by the source family's own codec and the
  output stays byte-identical;
* unrecoverable losses, malformed stripes and any other exception leave
  the stripe untouched and the journal balanced (``journal_open == 0``),
  and the journal does not grow with the number of conversions.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.chaos import verify_conversion_safety
from repro.codes import ParameterError
from repro.codes.families import FAMILIES, conversion
from repro.fusion import (
    ChunkUnavailable,
    CodeKind,
    Conversion,
    CostModel,
    ECFusion,
    FusionTransformer,
    StripeStore,
    SystemProfile,
    TransformAborted,
)

SHAPES = [(4, 2), (8, 3)]


def block(tr):
    """The shortest block length every family's codec accepts."""
    return math.lcm(tr.subpacketization, tr.codec("fr").subpacketization)


def _lose(lost):
    """Fault hook losing the given ``(phase, group)`` probes (None = all)."""

    def hook(phase, group):
        if lost is None or (phase, group) in lost:
            raise ChunkUnavailable(phase, group)

    return hook


def payload(tr, rng, blocks=1):
    return rng.integers(0, 256, (tr.k, block(tr) * blocks), dtype=np.uint8)


def snapshot(stripe):
    return stripe.kind, stripe.data.copy(), [p.copy() for p in stripe.parity]


def assert_untouched(stripe, snap):
    kind, data, parity = snap
    assert stripe.kind == kind
    assert np.array_equal(stripe.data, data)
    assert len(stripe.parity) == len(parity)
    assert all(map(np.array_equal, stripe.parity, parity))


def edges():
    return [(s, t) for s in FAMILIES for t in FAMILIES if s != t]


@pytest.mark.parametrize("k,r", SHAPES)
class TestCleanConversions:
    def test_every_edge_matches_direct_encode(self, k, r):
        tr = FusionTransformer(k, r)
        data = payload(tr, np.random.default_rng(23))
        for src, tgt in edges():
            stripe = tr.encode(data, src)
            tr.convert(stripe, tgt)
            direct = tr.encode(data, tgt)
            assert stripe.kind is CodeKind(tgt), (src, tgt)
            assert stripe.data is data, (src, tgt)  # data never moves
            assert len(stripe.parity) == len(direct.parity), (src, tgt)
            assert all(map(np.array_equal, stripe.parity, direct.parity)), (src, tgt)

    def test_roundtrip_tour(self, k, r):
        tr = FusionTransformer(k, r)
        data = payload(tr, np.random.default_rng(29), blocks=4)
        stripe = tr.encode(data, "rs")
        original = stripe.parity[0].copy()
        for target in ("lrc", "fr", "msr", "rs"):
            tr.convert(stripe, target)
            assert np.array_equal(stripe.data, data)
        assert np.array_equal(stripe.parity[0], original)
        assert (tr.journal_open, tr.journal_committed) == (0, 4)

    def test_conversion_costs_are_positive(self, k, r):
        tr = FusionTransformer(k, r)
        stripe = tr.encode(payload(tr, np.random.default_rng(31)), "rs")
        cost = tr.convert(stripe, "fr")
        assert cost.data_blocks_read > 0
        assert cost.blocks_written > 0


@pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (8, 3)])
def test_fault_free_cost_equals_the_family_table(k, r):
    """The model and the bytes agree: every edge's executed cost is what
    the family table prices, at one shortest block."""
    tr = FusionTransformer(k, r)
    cm = CostModel(k, r, SystemProfile())
    L = block(tr)
    data = payload(tr, np.random.default_rng(17))
    for src, tgt in edges():
        cost = tr.convert(tr.encode(data, src), tgt)
        reads, writes, ops = conversion(cm.family(src), cm.family(tgt), L)
        assert (
            cost.data_blocks_read,
            cost.parity_blocks_read,
            cost.blocks_written,
            cost.gf_ops,
        ) == (
            sum(slot < k for slot in reads),
            sum(slot >= k for slot in reads),
            len(writes),
            ops,
        ), (src, tgt)


@pytest.mark.parametrize("k,r", SHAPES)
class TestChaosSafety:
    def test_invariant_sweep_is_clean(self, k, r):
        tr = FusionTransformer(k, r)
        rng = np.random.default_rng(37)
        assert verify_conversion_safety(k, r, rng, L=3 * block(tr)) == []

    def test_single_data_loss_fails_over(self, k, r):
        tr = FusionTransformer(k, r)
        data = payload(tr, np.random.default_rng(41))
        for src in FAMILIES:
            stripe = tr.encode(data, src)
            target = "fr" if src != "fr" else "rs"
            tr.convert(stripe, target, fault_hook=_lose({("data", 0)}))
            direct = tr.encode(data, stripe.kind)
            assert all(map(np.array_equal, stripe.parity, direct.parity)), src
        assert tr.journal_open == 0

    def test_unrecoverable_loss_aborts_and_rolls_back(self, k, r):
        tr = FusionTransformer(k, r)
        stripe = tr.encode(payload(tr, np.random.default_rng(43)), "lrc")
        snap = snapshot(stripe)
        with pytest.raises(TransformAborted):
            tr.convert(stripe, "fr", fault_hook=_lose({("data", 0), ("parity", -1)}))
        # chaos-safe: the abort leaves the source stripe untouched and
        # the journal balanced — no half-written target survives
        assert_untouched(stripe, snap)
        assert (tr.journal_open, tr.journal_committed, tr.journal_aborted) == (0, 0, 1)

    def test_abort_is_counted(self, k, r):
        from repro import telemetry

        telemetry.enable(metrics=True, tracing=False, snapshots=False)
        telemetry.METRICS.reset()
        try:
            tr = FusionTransformer(k, r)
            stripe = tr.encode(payload(tr, np.random.default_rng(47)), "rs")
            with pytest.raises(TransformAborted):
                tr.convert(stripe, "lrc", fault_hook=_lose(None))
            state = telemetry.METRICS.export_state()
            assert "fusion.transform.aborted" in str(state)
        finally:
            telemetry.METRICS.reset()
            telemetry.METRICS.enabled = False


class TestJournal:
    def test_malformed_stripe_is_rejected_before_the_journal_opens(self):
        tr = FusionTransformer(4, 2)
        good = tr.encode(payload(tr, np.random.default_rng(51), blocks=2), "rs")
        malformed = [
            StripeStore("rs", good.data, [good.parity[0][:1]]),  # short parity
            StripeStore("rs", good.data, good.parity * 2),  # two RS parity sets
            StripeStore("msr", good.data, good.parity),  # one set for q groups
            StripeStore("rs", good.data[:3], good.parity),  # k - 1 data rows
            StripeStore("rs", good.data[:, :6], [good.parity[0][:, :6]]),  # 6 % 4
            StripeStore("hitchhiker", good.data, good.parity),  # no such family
        ]
        for stripe in malformed:
            snap = snapshot(stripe)
            with pytest.raises(ValueError):
                tr.convert(stripe, "rs" if stripe.kind == "msr" else "msr")
            assert_untouched(stripe, snap)
        with pytest.raises(ValueError):
            tr.convert(good, "evenodd")
        assert (tr.journal_open, tr.journal_committed, tr.journal_aborted) == (0, 0, 0)

    @pytest.mark.parametrize("src,tgt", [("rs", "msr"), ("msr", "rs"), ("lrc", "fr")])
    def test_any_exception_closes_the_journal(self, src, tgt):
        tr = FusionTransformer(4, 2)
        stripe = tr.encode(payload(tr, np.random.default_rng(53)), src)
        snap = snapshot(stripe)
        seen = []

        def hook(phase, group):
            seen.append(tr.journal_open)
            raise OSError("the disk under the probe failed")

        with pytest.raises(OSError):
            tr.convert(stripe, tgt, fault_hook=hook)
        assert seen == [1]  # the entry was open while the source was read ...
        assert_untouched(stripe, snap)  # ... and closed as an abort
        assert (tr.journal_open, tr.journal_committed, tr.journal_aborted) == (0, 0, 1)

    def test_ecfusion_conversions_do_not_grow_the_journal(self):
        fusion = ECFusion(k=4, r=2)
        fusion.write("s", np.random.default_rng(59).integers(0, 256, (4, 16), np.uint8))
        flips = [Conversion("s", kind, "test") for kind in (CodeKind.MSR, CodeKind.RS)]
        for _ in range(50):
            fusion._apply_conversions(flips)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5000):
                fusion._apply_conversions(flips)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tr = fusion.transformer
        assert (tr.journal_open, tr.journal_committed) == (0, 10100)
        assert grown < 16 << 10, f"{grown} bytes kept by 10,000 conversions"


class TestValidation:
    def test_unknown_family_rejected(self):
        tr = FusionTransformer(4, 2)
        data = payload(tr, np.random.default_rng(53))
        with pytest.raises(ValueError):
            tr.encode(data, "evenodd")
        stripe = tr.encode(data, "rs")
        with pytest.raises(ValueError):
            tr.convert(stripe, "evenodd")

    def test_bad_block_length_rejected(self):
        tr = FusionTransformer(4, 2)
        bad = np.zeros((4, block(tr) + 1), dtype=np.uint8)
        with pytest.raises(ValueError):
            tr.encode(bad, "msr")

    def test_subpacketization_covers_msr_and_fr(self):
        tr = FusionTransformer(6, 3)  # MSR l = 9, FR l = 2
        assert block(tr) == 18
        for L in (9, 2):  # a multiple of one family's l only
            stripe = tr.encode(np.zeros((6, L), np.uint8), "rs")
            with pytest.raises(ValueError):
                tr.convert(stripe, "msr" if L == 2 else "fr")
        stripe = tr.encode(np.zeros((6, 18), np.uint8), "msr")
        tr.convert(stripe, "fr")
        assert tr.journal_committed == 1

    def test_codecs_follow_the_cost_model_and_are_built_lazily(self):
        tr = FusionTransformer(8, 3)
        assert set(tr._codecs) == {"rs", "msr"}
        assert tr.cost_model == CostModel(8, 3, SystemProfile())
        for code in ("lrc", "fr"):
            codec = tr.codec(code)
            assert codec.n - codec.k == tr.cost_model.family(code).parities
        # LRC(5, 2, 2) cannot exist; the transformer and the store still can
        tr5 = FusionTransformer(5, 2)
        with pytest.raises(ParameterError):
            tr5.codec("lrc")
        fusion = ECFusion(5, 2)
        fusion.write("s", np.zeros((5, 8), np.uint8))
        fusion.recover("s", 0)
        assert set(fusion.transformer._codecs) == {"rs", "msr"}
