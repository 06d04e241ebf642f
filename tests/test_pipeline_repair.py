"""Tests for pipelined repair: streamed codecs + the cluster pipeline.

Covers the three layers of the ECPipe-style path independently:

* codec layer — ``repair_streamed`` must be byte-identical to one-shot
  ``repair`` for every chunk size (GF sums commute with any split);
* framework layer — ``ECFusion.recover_streamed`` matches ``recover``;
* cluster layer — pipelined reconstruction beats the conventional
  pull-everything path by the committed ≥ 1.5× floor on the Fig. 17
  platform, and stays correct under chunk-size extremes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import ClusterConfig, pipeline_slices, run_workload
from repro.codes import MSRCode, ReedSolomonCode
from repro.fusion import ECFusion, SystemProfile
from repro.hybrid import MSRPlanner, RSPlanner
from repro.telemetry import METRICS
from repro.workloads import FailureEvent, OpType, Request, Trace

GAMMA = 1024.0 * 1024


def make_data(rng, k, L=64):
    return rng.integers(0, 256, (k, L), dtype=np.uint8)


class TestPipelineSlices:
    def test_exact_division(self):
        assert pipeline_slices(81.0, 27.0) == (3, 27.0)

    def test_remainder_rebalances(self):
        chunks, size = pipeline_slices(100.0, 30.0)
        assert chunks == 4
        assert size == pytest.approx(25.0)
        assert chunks * size == pytest.approx(100.0)

    def test_small_output_single_chunk(self):
        assert pipeline_slices(10.0, 100.0) == (1, 10.0)

    def test_empty_output_is_one_empty_chunk(self):
        assert pipeline_slices(0.0, 16.0) == (1, 0.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            pipeline_slices(-1.0, 16.0)
        with pytest.raises(ValueError):
            pipeline_slices(64.0, 0.0)


class TestStreamedRS:
    @settings(max_examples=25, deadline=None)
    @given(
        failed=st.integers(min_value=0, max_value=10),
        chunk=st.sampled_from([1, 7, 100, 1 << 12, 1 << 20]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_byte_identical_to_one_shot(self, failed, chunk, seed):
        rng = np.random.default_rng(seed)
        rs = ReedSolomonCode(8, 3)
        coded = rs.encode(make_data(rng, 8, L=96))
        shards = {i: coded[i] for i in range(rs.n) if i != failed}
        one_shot = rs.repair(failed, shards)
        streamed = rs.repair_streamed(failed, shards, chunk_size=chunk)
        assert np.array_equal(streamed.block, one_shot.block)
        assert np.array_equal(streamed.block, coded[failed])

    def test_reads_exactly_k_full_blocks(self):
        rng = np.random.default_rng(0)
        rs = ReedSolomonCode(4, 2)
        coded = rs.encode(make_data(rng, 4))
        shards = {i: coded[i] for i in range(1, 6)}
        res = rs.repair_streamed(0, shards)
        assert len(res.bytes_read) == 4
        assert all(v == 64 for v in res.bytes_read.values())

    def test_coefficients_validate_helpers(self):
        rs = ReedSolomonCode(4, 2)
        with pytest.raises(ValueError, match="distinct helpers"):
            rs.repair_coefficients(0, [1, 2, 3])  # too few
        with pytest.raises(ValueError, match="distinct helpers"):
            rs.repair_coefficients(0, [1, 1, 2, 3])  # duplicate
        with pytest.raises(ValueError, match="invalid failed"):
            rs.repair_coefficients(1, [1, 2, 3, 4])  # failed among helpers

    def test_bad_chunk_size_rejected(self):
        rng = np.random.default_rng(1)
        rs = ReedSolomonCode(4, 2)
        coded = rs.encode(make_data(rng, 4))
        shards = {i: coded[i] for i in range(1, 6)}
        with pytest.raises(ValueError, match="chunk_size"):
            rs.repair_streamed(0, shards, chunk_size=0)


class TestStreamedMSR:
    @settings(max_examples=15, deadline=None)
    @given(
        failed=st.integers(min_value=0, max_value=7),
        chunk=st.sampled_from([1, 16, 128, 1 << 20]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_byte_identical_to_one_shot(self, failed, chunk, seed):
        rng = np.random.default_rng(seed)
        msr = MSRCode(8, 4, verify="off")
        L = msr.subpacketization * 4
        data = rng.integers(0, 256, (msr.k, L), dtype=np.uint8)
        coded = msr.encode(data)
        shards = {i: coded[i] for i in range(msr.n) if i != failed}
        one_shot = msr.repair(failed, shards)
        streamed = msr.repair_streamed(failed, shards, chunk_size=chunk)
        assert np.array_equal(streamed.block, one_shot.block)
        assert np.array_equal(streamed.block, coded[failed])

    def test_optimal_read_volume_preserved(self):
        """Streaming must not inflate reads past the l/s-per-helper optimum."""
        rng = np.random.default_rng(2)
        msr = MSRCode(6, 3, verify="off")
        L = msr.subpacketization * 2
        coded = msr.encode(rng.integers(0, 256, (msr.k, L), dtype=np.uint8))
        shards = {i: coded[i] for i in range(1, 6)}
        res = msr.repair_streamed(0, shards)
        per_helper = L // msr.s
        assert res.bytes_read == {i: per_helper for i in range(1, 6)}

    def test_requires_all_helpers(self):
        rng = np.random.default_rng(3)
        msr = MSRCode(4, 2, verify="off")
        coded = msr.encode(
            rng.integers(0, 256, (msr.k, msr.subpacketization), dtype=np.uint8)
        )
        shards = {i: coded[i] for i in (1, 2)}  # node 3 also missing
        with pytest.raises(ValueError, match="all n-1 helpers"):
            msr.repair_streamed(0, shards)

    def test_out_of_range_node_refused_before_it_counts(self):
        """A node past ``n`` is refused before the call is counted."""
        msr = MSRCode(6, 3, verify="off")
        block = np.zeros(msr.subpacketization, np.uint8)
        telemetry.disable()
        telemetry.reset()
        telemetry.enable(metrics=True, tracing=False, snapshots=False)
        try:
            with pytest.raises(ValueError, match="failed node 6 out of range"):
                msr.repair_streamed(6, dict.fromkeys(range(6), block))
            assert METRICS.counter("codes.msr.repair_streamed_calls").value == 0
        finally:
            telemetry.disable()
            telemetry.reset()


class TestFrameworkStreamed:
    def test_recover_streamed_matches_recover(self):
        profile = SystemProfile(alpha=1e9)  # η(4,2) = 1.5
        rng = np.random.default_rng(4)
        for chunk in (1, 16, 1 << 16):
            a = ECFusion(k=4, r=2, profile=profile)
            b = ECFusion(k=4, r=2, profile=profile)
            data = make_data(rng, 4)
            a.write("s", data)
            b.write("s", data)
            rep_a = a.recover("s", 1)
            rep_b = b.recover_streamed("s", 1, chunk_size=chunk)
            assert rep_a.code is rep_b.code
            assert rep_a.bytes_read == rep_b.bytes_read
            assert np.array_equal(a.read("s", 1), b.read("s", 1))
            assert np.array_equal(b.read_stripe("s"), data)

    @pytest.mark.parametrize("k, r", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 3)])
    @pytest.mark.parametrize("mode", ["rs", "msr"])
    def test_streamed_recovery_reads_and_writes_what_recovery_does(self, k, r, mode):
        """Every data block, both modes, padded MSR groups (r ∤ k) included:
        a padded group's virtual all-zero data nodes are neither read nor
        counted by either recovery."""
        rng = np.random.default_rng(k * 10 + r)
        data = make_data(rng, k, L=8 * r * r)
        for block in range(k):
            seen = []
            for streamed in (False, True):
                fusion = ECFusion(k=k, r=r)
                fusion.write("s", data)
                if mode == "rs":
                    for _ in range(9):  # a write-heavy stripe stays RS
                        fusion.write("s", data)
                else:
                    fusion.recover("s", 0)  # the first recovery flips it to MSR
                fusion._stripes["s"].data[block] = 0xA5  # the lost row: never read
                before = fusion.stats()["repair_bytes_read"]
                if streamed:
                    rep = fusion.recover_streamed("s", block, chunk_size=8)
                else:
                    rep = fusion.recover("s", block)
                assert rep.code.value == mode
                assert np.array_equal(fusion.read_stripe("s"), data)
                seen.append((rep.bytes_read, fusion.stats()["repair_bytes_read"] - before))
            assert seen[0] == seen[1], (block, seen)

    def test_recover_streamed_after_msr_conversion(self):
        profile = SystemProfile(alpha=1e9)
        rng = np.random.default_rng(5)
        fusion = ECFusion(k=4, r=2, profile=profile)
        data = make_data(rng, 4)
        fusion.write("s", data)
        fusion.recover("s", 0)  # flips the stripe to MSR
        report = fusion.recover_streamed("s", 2, chunk_size=8)
        assert report.code.name.startswith("MSR")
        assert np.array_equal(fusion.read_stripe("s"), data)


def _repair_trace(num_stripes=6, reads=12):
    reqs = [
        Request(time=float(i), op=OpType.WRITE, stripe=i, block=0)
        for i in range(num_stripes)
    ]
    reqs += [
        Request(time=float(num_stripes + i), op=OpType.READ, stripe=i % num_stripes, block=0)
        for i in range(reads)
    ]
    return Trace(name="t", requests=reqs)


class TestPipelinedSimulation:
    def _run(self, planner, pipeline_chunk=None):
        config = ClusterConfig(
            num_nodes=14,
            profile=SystemProfile(gamma=GAMMA),
            pipeline_chunk=pipeline_chunk,
        )
        return run_workload(
            planner,
            _repair_trace(),
            failures=[FailureEvent(time=0.0, stripe=1, block=2)],
            config=config,
        )

    @pytest.mark.parametrize(
        "planner", [RSPlanner(8, 3, GAMMA), MSRPlanner(8, 3, GAMMA)], ids=["RS", "MSR"]
    )
    def test_pipelining_beats_conventional_repair(self, planner):
        """Acceptance floor: ≥ 1.5× faster reconstruction on the fig17 shape."""
        conventional = self._run(planner)
        pipelined = self._run(planner, pipeline_chunk=float(1 << 18))
        assert len(pipelined.recovery_latencies) == len(conventional.recovery_latencies)
        assert pipelined.epsilon2 * 1.5 <= conventional.epsilon2

    def test_huge_chunk_degenerates_gracefully(self):
        """chunk ≥ γ means a single slice; still completes every repair."""
        res = self._run(RSPlanner(4, 2, GAMMA), pipeline_chunk=float(1 << 30))
        assert len(res.recovery_latencies) == 1
        assert res.failed_requests == 0

    def test_pipeline_chunk_validated(self):
        with pytest.raises(ValueError, match="pipeline_chunk"):
            self._run(RSPlanner(4, 2, GAMMA), pipeline_chunk=-1.0)
