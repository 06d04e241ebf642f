"""M/G/1 validation of the discrete-event simulator.

The open-mode simulator's client NIC is an M/G/1 queue under Poisson
arrivals; Pollaczek–Khinchine predicts its waiting time analytically.
Agreement between prediction and simulation validates the event engine's
FIFO resource semantics end to end.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, run_workload
from repro.fusion.costmodel import SystemProfile
from repro.hybrid import RSPlanner
from repro.metrics.queueing import ServiceMix, client_nic_mix, mg1_response, mg1_wait
from repro.workloads import OpType, Request, Trace

GAMMA = 8 * 1024 * 1024.0


class TestServiceMix:
    def test_moments(self):
        mix = ServiceMix(items=((0.5, 1.0), (0.5, 3.0)))
        assert mix.mean == pytest.approx(2.0)
        assert mix.second_moment == pytest.approx(5.0)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ServiceMix(items=((0.5, 1.0),))
        with pytest.raises(ValueError):
            ServiceMix(items=((1.2, 1.0), (-0.2, 1.0)))


class TestMG1Formulas:
    def test_md1_halves_mm1_wait(self):
        """Deterministic service: W_M/D/1 = W_M/M/1 / (1 + cv²=0 term)."""
        mix = ServiceMix(items=((1.0, 0.01),))
        lam = 50.0  # utilization 0.5
        w = mg1_wait(lam, mix)
        # M/D/1: W = ρ·S/(2(1−ρ)) = 0.5·0.01/(2·0.5) = 0.005
        assert w == pytest.approx(0.005)

    def test_unstable_rejected(self):
        mix = ServiceMix(items=((1.0, 1.0),))
        with pytest.raises(ValueError):
            mg1_wait(1.5, mix)
        with pytest.raises(ValueError):
            mg1_wait(-1.0, mix)

    def test_response_adds_service(self):
        mix = ServiceMix(items=((1.0, 0.01),))
        assert mg1_response(10.0, mix) == pytest.approx(mg1_wait(10.0, mix) + 0.01)


class TestSimulatorAgreement:
    def make_poisson_trace(self, rng, n, rate, read_fraction, stripes=8):
        times = np.cumsum(rng.exponential(1.0 / rate, size=n))
        reqs = []
        for i in range(n):
            is_read = rng.random() < read_fraction
            reqs.append(
                Request(
                    time=float(times[i]),
                    op=OpType.READ if is_read else OpType.WRITE,
                    stripe=int(rng.integers(stripes)),
                    block=int(rng.integers(4)),
                )
            )
        return Trace(name="poisson", requests=reqs)

    @pytest.mark.parametrize(
        "read_fraction,utilization,lam",
        [
            pytest.param(1.0, 0.5, 125e6, id="1.0-0.5"),
            pytest.param(0.5, 0.55, 125e6, id="0.5-0.55"),
            # a non-default NIC: the mix must price the cluster's own λ
            pytest.param(0.5, 0.55, 250e6, id="0.5-0.55-lam250e6"),
        ],
    )
    def test_open_mode_matches_pk_prediction(self, read_fraction, utilization, lam):
        rng = np.random.default_rng(42)
        scheme = RSPlanner(4, 2, GAMMA)
        config = ClusterConfig(num_nodes=18, profile=SystemProfile(gamma=GAMMA, lam=lam))
        mix = client_nic_mix(scheme, read_fraction, config.profile)
        rate = utilization / mix.mean
        trace = self.make_poisson_trace(rng, 600, rate, read_fraction)
        res = run_workload(scheme, trace, [], config, mode="open")

        # the pipeline outside the client NIC adds a near-constant offset:
        # source/sink disk + per-node NIC stage, uncontended at this load.
        p = config.profile
        read_extra = GAMMA / p.disk_bandwidth + GAMMA / p.lam + 2 * p.net_latency
        write_extra = (
            GAMMA * 4 * 2 / p.alpha  # encode
            + GAMMA / p.lam  # slowest parallel node transfer
            + GAMMA / p.disk_bandwidth
            + 2 * p.net_latency
        )
        predicted_wait = mg1_wait(rate, mix)
        read_s = mix.items[0][1]
        write_s = mix.items[1][1]
        predicted_read = predicted_wait + read_s + read_extra
        predicted_write = predicted_wait + write_s + write_extra

        if read_fraction > 0 and res.read_latencies:
            sim_read = float(np.mean(res.read_latencies))
            assert sim_read == pytest.approx(predicted_read, rel=0.25)
        if read_fraction < 1 and res.write_latencies:
            sim_write = float(np.mean(res.write_latencies))
            assert sim_write == pytest.approx(predicted_write, rel=0.25)

    def test_low_load_latency_is_pure_service(self):
        """At utilization ~0, response == service path with no queueing."""
        rng = np.random.default_rng(7)
        scheme = RSPlanner(4, 2, GAMMA)
        config = ClusterConfig(num_nodes=18, profile=SystemProfile(gamma=GAMMA))
        mix = client_nic_mix(scheme, 1.0, config.profile)
        rate = 0.01 / mix.mean  # utilization 1%
        trace = self.make_poisson_trace(rng, 100, rate, 1.0)
        res = run_workload(scheme, trace, [], config, mode="open")
        lats = np.asarray(res.read_latencies)
        # the *typical* request sees an idle pipeline (rare arrival
        # collisions still queue, so compare median to the uncontended min)
        assert np.median(lats) == pytest.approx(lats.min(), rel=0.01)
