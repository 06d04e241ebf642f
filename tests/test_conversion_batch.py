"""The converter's stripe-batched entry points against the per-stripe loop.

``FusionTransformer.rs_to_msr_batch`` and ``msr_to_rs_batch`` take a
stack of stripes and must give, stripe by stripe, what
:meth:`~repro.fusion.FusionTransformer.rs_to_msr` and
:meth:`~repro.fusion.FusionTransformer.msr_to_rs` give: the same parity
bytes, the same :class:`~repro.fusion.TransformCost`, and the same
telemetry counters in total (the ``wall.*`` timers aside, which measure
time).  Covered on two unpadded and two padded shapes, for batches of
0, 1 and 4 stripes, with the batch entries' own input checks.
"""

import numpy as np
import pytest

from repro.fusion import FusionTransformer
from repro.telemetry import METRICS

SHAPES = [(6, 3), (8, 3), (4, 2), (5, 2)]


@pytest.fixture(scope="module", params=SHAPES, ids=[f"k{k}r{r}" for k, r in SHAPES])
def tr(request):
    return FusionTransformer(*request.param)


@pytest.fixture(autouse=True)
def _metrics_off():
    yield
    METRICS.reset()
    METRICS.disable()


def _counters():
    return {k: v for k, v in METRICS.snapshot().items() if ".wall." not in k}


def _rs_stack(tr, batch, seed=0):
    rng = np.random.default_rng(seed)
    L = tr.subpacketization * 8
    data = rng.integers(0, 256, (batch, tr.k, L), dtype=np.uint8)
    parity = np.empty((batch, tr.r, L), np.uint8)
    for d, p in zip(data, parity):
        tr.rs.encode(d, out=p)
    return data, parity


def _recorded(fn):
    METRICS.reset()
    METRICS.enable()
    out = fn()
    counters = _counters()
    METRICS.disable()
    return out, counters


@pytest.mark.parametrize("batch", [0, 1, 4])
def test_rs_to_msr_batch_is_the_loop(tr, batch):
    data, parity = _rs_stack(tr, batch)
    loop, loop_counters = _recorded(
        lambda: [tr.rs_to_msr(d, p) for d, p in zip(data, parity)]
    )
    got, got_counters = _recorded(lambda: tr.rs_to_msr_batch(data, parity))
    assert len(got) == batch
    assert got_counters == loop_counters
    for a, b in zip(loop, got):
        assert a.cost == b.cost
        assert np.array_equal(a.data, b.data)
        assert len(a.parity) == len(b.parity) == tr.q
        for pa, pb in zip(a.parity, b.parity):
            assert np.array_equal(pa, pb)


@pytest.mark.parametrize("batch", [0, 1, 4])
def test_msr_to_rs_batch_is_the_loop(tr, batch):
    data, parity = _rs_stack(tr, batch, seed=1)
    groups = [tr.rs_to_msr(d, p).parity for d, p in zip(data, parity)]
    L = data.shape[2]
    stacks = [np.empty((batch, tr.r, L), np.uint8) for _ in range(tr.q)]
    for b, g in enumerate(groups):
        for stack, p in zip(stacks, g):
            stack[b] = p
    loop, loop_counters = _recorded(lambda: [tr.msr_to_rs(g) for g in groups])
    got, got_counters = _recorded(lambda: tr.msr_to_rs_batch(stacks))
    assert len(got) == batch
    assert got_counters == loop_counters
    for a, b, p in zip(loop, got, parity):
        assert a.cost == b.cost
        assert np.array_equal(a.parity, b.parity)
        assert np.array_equal(b.parity, p)  # the merge restores the RS parity


def test_batch_validation(tr):
    data, parity = _rs_stack(tr, 2)
    L = data.shape[2]
    with pytest.raises(ValueError, match="must be"):
        tr.rs_to_msr_batch(data[0], parity[0])  # not 3-D
    with pytest.raises(ValueError, match="must be"):
        tr.rs_to_msr_batch(data[:, 1:], parity)  # wrong k
    with pytest.raises(ValueError, match="rs_parity must be"):
        tr.rs_to_msr_batch(data, parity[:, 1:])  # wrong r
    with pytest.raises(ValueError, match="sub-packetization"):
        tr.rs_to_msr_batch(data[:, :, : L - 1], parity[:, :, : L - 1])
    with pytest.raises(ValueError, match="wider than"):
        tr.rs_to_msr_batch(data.astype(np.int16), parity)
    stacks = [parity] * tr.q
    with pytest.raises(ValueError, match="parity groups"):
        tr.msr_to_rs_batch(stacks[1:])
    with pytest.raises(ValueError, match="share one"):
        tr.msr_to_rs_batch([parity[:1]] + stacks[1:])  # inconsistent shapes
    with pytest.raises(ValueError, match="share one"):
        tr.msr_to_rs_batch([p[0] for p in stacks])  # not 3-D
    with pytest.raises(ValueError, match="share one"):
        tr.msr_to_rs_batch([p[:, 1:] for p in stacks])  # wrong r
    with pytest.raises(ValueError, match="sub-packetization"):
        tr.msr_to_rs_batch([p[:, :, : L - 1] for p in stacks])
