"""Tests for simulated disks, links, CPUs, nodes and the namenode."""

import pytest

from repro.cluster import Cpu, DataNode, Disk, Link, NameNode, Simulator
from repro.fusion.costmodel import SystemProfile

P = SystemProfile()


class TestDisk:
    def test_access_time_formula(self):
        sim = Simulator()
        disk = Disk(sim, "disk", bandwidth=100e6, io_latency=1e-3, phi=64 * 1024)
        t = disk.access_time(128 * 1024)  # 2 I/O ops
        assert t == pytest.approx(2e-3 + 128 * 1024 / 100e6)

    def test_zero_bytes_is_free(self):
        sim = Simulator()
        disk = Disk(sim, "disk", P.disk_bandwidth, P.io_latency, P.phi)
        assert disk.access_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        disk = Disk(Simulator(), "disk", P.disk_bandwidth, P.io_latency, P.phi)
        with pytest.raises(ValueError):
            disk.access_time(-1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Disk(Simulator(), "disk", bandwidth=0, io_latency=P.io_latency, phi=P.phi)

    def test_read_write_counters(self):
        sim = Simulator()
        disk = Disk(sim, "disk", P.disk_bandwidth, P.io_latency, P.phi)

        def proc():
            yield disk.read_ev(1000)
            yield disk.write_ev(500)

        sim.process(proc())
        sim.run()
        assert disk.bytes_read == 1000
        assert disk.bytes_written == 500


class TestLink:
    def test_transfer_time(self):
        link = Link(Simulator(), "nic", bandwidth=125e6, latency=1e-3)
        assert link.transfer_time(125e6) == pytest.approx(1.001)

    def test_zero_transfer_free(self):
        link = Link(Simulator(), "nic", P.lam, P.net_latency)
        assert link.transfer_time(0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Link(Simulator(), "nic", bandwidth=-1, latency=P.net_latency)
        with pytest.raises(ValueError):
            Link(Simulator(), "nic", P.lam, P.net_latency).transfer_time(-5)


class TestCpu:
    def test_compute_time(self):
        cpu = Cpu(Simulator(), "cpu", alpha=1e9)
        assert cpu.compute_time(5e8) == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Cpu(Simulator(), "cpu", alpha=0)
        with pytest.raises(ValueError):
            Cpu(Simulator(), "cpu", P.alpha).compute_time(-1)


class TestDataNode:
    def test_resources_exist(self):
        node = DataNode(Simulator(), node_id=3, profile=P)
        assert node.disk.name == "disk3"
        assert node.nic.name == "nic3"
        assert node.cpu.name == "cpu3"


class TestNameNode:
    def test_placement_is_deterministic_and_disjoint(self):
        nn = NameNode(num_nodes=12, width=6)
        info = nn.lookup("stripe0")
        assert len(info.placement) == 6
        assert len(set(info.placement)) == 6  # no node holds two chunks
        assert nn.lookup("stripe0").placement == info.placement

    def test_different_stripes_rotate(self):
        nn = NameNode(num_nodes=12, width=6)
        a = nn.lookup("a").placement
        b = nn.lookup("b").placement
        assert a != b

    def test_node_of(self):
        nn = NameNode(num_nodes=10, width=4)
        nn.lookup("s")
        assert nn.node_of("s", 0) == nn.lookup("s").placement[0]
        with pytest.raises(ValueError):
            nn.node_of("s", 4)

    def test_cluster_too_small_rejected(self):
        with pytest.raises(ValueError):
            NameNode(num_nodes=4, width=6)

    def test_stripe_count(self):
        nn = NameNode(num_nodes=10, width=4)
        for s in range(5):
            nn.lookup(s)
        assert nn.stripe_count == 5
        assert len(nn.stripes()) == 5

    def test_load_spreads_over_nodes(self):
        """Rotational placement should not pile slot 0 on one node."""
        nn = NameNode(num_nodes=10, width=4)
        heads = {nn.lookup(i).placement[0] for i in range(10)}
        assert len(heads) == 10
