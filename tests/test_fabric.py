"""Tests for the oversubscribed aggregation fabric and per-DC repair caps.

The fabric is strictly opt-in: a default :class:`ClusterConfig` builds
no uplinks and the executor's ``fabric`` stays ``None``, keeping every
pre-hierarchy simulation bit-identical.  With oversubscription set,
cross-domain repair bytes queue on shared rack/DC links and recovery
visibly slows — the regime the durability engine's repair-stretch
multiplier models analytically.
"""

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    Fabric,
    NameNode,
    Uplink,
    run_workload,
)
from repro.cluster.events import Simulator
from repro.fusion.costmodel import SystemProfile
from repro.hybrid import RSPlanner
from repro.workloads import FailureEvent, OpType, Request, Trace

GAMMA = 4.0 * 1024 * 1024


def small_trace(n=12):
    requests = [
        Request(time=0.2 * i, op=OpType.READ if i % 2 else OpType.WRITE,
                stripe=i % 4, block=i % 4)
        for i in range(n)
    ]
    return Trace(name="t", requests=requests)


class TestUplink:
    def test_bandwidth_is_aggregate_over_oversubscription(self):
        sim = Simulator()
        up = Uplink(sim, "rack0-uplink", member_bandwidth=125e6, members=8,
                    oversubscription=5.0, latency=200e-6)
        assert up.bandwidth == pytest.approx(125e6 * 8 / 5.0)
        assert up.oversubscription == 5.0 and up.members == 8

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="oversubscription"):
            Uplink(sim, "u", 125e6, members=4, oversubscription=0.5, latency=200e-6)
        with pytest.raises(ValueError, match="member"):
            Uplink(sim, "u", 125e6, members=0, oversubscription=2.0, latency=200e-6)


class TestFabric:
    def test_builds_one_link_per_domain(self):
        sim = Simulator()
        nn = NameNode(16, 6, racks=4, dcs=2)
        fabric = Fabric(sim, nn, SystemProfile(), rack_oversubscription=5.0,
                        dc_oversubscription=10.0)
        assert sorted(fabric.rack_uplinks) == [0, 1, 2, 3]
        assert sorted(fabric.dc_links) == [0, 1]
        assert fabric.rack_uplinks[2].name == "rack2-uplink"
        assert fabric.dc_links[1].name == "dc1-interconnect"

    def test_no_factors_means_no_links(self):
        sim = Simulator()
        nn = NameNode(16, 6, racks=4, dcs=2)
        fabric = Fabric(sim, nn, SystemProfile())
        assert not fabric.rack_uplinks and not fabric.dc_links

    def test_default_cluster_has_no_fabric(self):
        config = ClusterConfig(num_nodes=16, profile=SystemProfile(gamma=GAMMA))
        cluster = Cluster(config, width=6)
        assert cluster.executor.fabric is None

    def test_oversubscribed_cluster_builds_fabric(self):
        config = ClusterConfig(
            num_nodes=16,
            racks=4,
            dcs=2,
            rack_oversubscription=5.0,
            dc_oversubscription=10.0,
            profile=SystemProfile(gamma=GAMMA),
        )
        cluster = Cluster(config, width=6)
        fabric = cluster.executor.fabric
        assert fabric is not None
        assert len(fabric.rack_uplinks) == 4 and len(fabric.dc_links) == 2

    def test_oversubscription_slows_recovery(self):
        """The same failure stream repairs strictly slower when repair
        bytes must cross heavily oversubscribed rack uplinks."""
        scheme = RSPlanner(4, 2, GAMMA)
        failures = [FailureEvent(time=0.5, stripe=0, block=0)]

        def run(**extra):
            config = ClusterConfig(
                num_nodes=16, racks=4, profile=SystemProfile(gamma=GAMMA), **extra
            )
            return run_workload(scheme, small_trace(), failures, config)

        flat = run()
        congested = run(rack_oversubscription=50.0)
        assert congested.recovery_latencies and flat.recovery_latencies
        assert max(congested.recovery_latencies) > max(flat.recovery_latencies)


class TestPerDcRepairCap:
    def test_cap_serialises_repairs_sharing_a_dc(self):
        """Width-6 stripes over 4 racks/2 DCs touch both DCs, so with
        max_repairs_per_dc=1 two repairs can never run concurrently."""
        scheme = RSPlanner(4, 2, GAMMA)
        config = ClusterConfig(
            num_nodes=16,
            racks=4,
            dcs=2,
            repair_scheduler=True,
            max_repairs_per_dc=1,
            profile=SystemProfile(gamma=GAMMA),
        )
        cluster = Cluster(config, width=scheme.width)
        sched = cluster.scheduler
        sched.submit(scheme.plan_recovery(0, 0), 0, 0)
        sched.submit(scheme.plan_recovery(1, 0), 1, 0)
        assert len(sched.running) == 1
        queued = sched.pending_jobs()
        assert len(queued) == 1 and queued[0].state == "queued"
        cluster.sim.run()
        assert queued[0].state == "done"
        assert queued[0].dispatched_at > 0.0  # waited for the DC slot

    def test_unlimited_by_default(self):
        scheme = RSPlanner(4, 2, GAMMA)
        config = ClusterConfig(
            num_nodes=16,
            racks=4,
            dcs=2,
            repair_scheduler=True,
            profile=SystemProfile(gamma=GAMMA),
        )
        cluster = Cluster(config, width=scheme.width)
        sched = cluster.scheduler
        sched.submit(scheme.plan_recovery(0, 0), 0, 0)
        sched.submit(scheme.plan_recovery(1, 0), 1, 0)
        assert len(sched.running) == 2
        cluster.sim.run()

    def test_cap_validation(self):
        scheme = RSPlanner(4, 2, GAMMA)
        config = ClusterConfig(
            num_nodes=16,
            repair_scheduler=True,
            max_repairs_per_dc=0,
            profile=SystemProfile(gamma=GAMMA),
        )
        with pytest.raises(ValueError, match="max_per_dc"):
            Cluster(config, width=scheme.width)
