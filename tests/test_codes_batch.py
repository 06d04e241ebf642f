"""Tests for the codes' stripe-batched entry points.

A uniform batch (one shape, and for repair one failure pattern) runs
through ``code.encode_batch`` / ``repair_batch`` as a single fused
dispatch per compiled plan.  Both must be byte-identical to a per-stripe
loop — results *and* telemetry totals.
"""

import numpy as np
import pytest

from repro.codes import MSRCode, ReedSolomonCode, UnrecoverableError
from repro.telemetry import METRICS


@pytest.fixture(scope="module")
def rs():
    return ReedSolomonCode(6, 3)


def make_stripes(rng, code, count, L=256):
    return [rng.integers(0, 256, (code.k, L), dtype=np.uint8) for _ in range(count)]


class TestVectorizedFastPath:
    """Uniform batches collapse into fused dispatches, byte-identically."""

    @pytest.fixture(autouse=True)
    def _metrics_off(self):
        yield
        METRICS.reset()
        METRICS.disable()

    def _codes_counters(self):
        return {
            k: v
            for k, v in METRICS.snapshot().items()
            if k.startswith(("codes.", "gf."))
        }

    @pytest.mark.parametrize(
        "code", [ReedSolomonCode(6, 3), MSRCode(6, 3, verify="off")], ids=["rs", "msr"]
    )
    def test_uniform_storm_matches_loop_with_telemetry(self, code):
        """Same failed node across every stripe — the vectorized storm."""
        rng = np.random.default_rng(6)
        L = code.subpacketization * 16
        stripes = make_stripes(rng, code, 7, L=L)
        coded = np.stack([code.encode(s) for s in stripes])
        failed = 2
        helpers = [i for i in range(code.n) if i != failed]

        METRICS.reset()
        METRICS.enable()
        loop = [code.repair(failed, {i: cw[i] for i in helpers}) for cw in coded]
        loop_counters = self._codes_counters()
        METRICS.reset()
        fast = code.repair_batch(failed, {i: coded[:, i] for i in helpers})
        fast_counters = self._codes_counters()

        assert fast_counters == loop_counters, "telemetry diverged under batching"
        for a, b in zip(loop, fast):
            assert np.array_equal(a.block, b.block)
            assert a.bytes_read == b.bytes_read

    def test_uniform_encode_matches_loop(self, rs):
        rng = np.random.default_rng(7)
        stripes = make_stripes(rng, rs, 6)
        METRICS.reset()
        METRICS.enable()
        loop_coded = [rs.encode(s) for s in stripes]
        loop_counters = self._codes_counters()
        METRICS.reset()
        fast_coded = rs.encode_batch(np.stack(stripes))
        assert self._codes_counters() == loop_counters
        for a, b in zip(loop_coded, fast_coded):
            assert np.array_equal(a, b)

    def test_code_level_encode_batch_validates(self, rs):
        with pytest.raises(ValueError):
            rs.encode_batch(np.zeros((2, rs.k + 1, 8), dtype=np.uint8))
        with pytest.raises(ValueError):
            rs.encode_batch(np.zeros((rs.k, 8), dtype=np.uint8))  # not 3-D

    def test_code_level_repair_batch_validates(self, rs):
        with pytest.raises(UnrecoverableError):
            rs.repair_batch(0, {})
        with pytest.raises(ValueError):
            rs.repair_batch(0, {1: np.zeros(8, dtype=np.uint8)})  # not 2-D
