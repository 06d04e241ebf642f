"""One platform profile: the Table I/VI constants have a value only in
:class:`~repro.fusion.costmodel.SystemProfile`.

The selector prices η on a ``SystemProfile``; the DES, the reliability
model and the M/G/1 model must run on the same machine.  Two referees
keep it so:

* a static scan of every module under ``src/repro`` that fails when a
  platform-named parameter or dataclass field has a numeric-literal
  default anywhere but ``SystemProfile``;
* a plumbing test that builds a profile with every field off its default
  and checks each consumer carries the profile's values.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.fusion.costmodel import SystemProfile
from repro.metrics.reliability import ReliabilityModel
from repro.server import ObjectStore, ServerConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: names that denote a Table I/VI platform constant wherever they appear.
#: ``gamma`` is left out on purpose: γ is each experiment's chunk size (the
#: paper itself uses two, 27 MB and 64 KB), not a property of the machine.
PLATFORM_NAMES = frozenset(
    {
        "alpha",
        "lam",
        "phi",
        "disk_bandwidth",
        "io_latency",
        "net_latency",
        "metadata_latency",
        "bandwidth",
        "net_bandwidth",
        "node_bandwidth",
        "member_bandwidth",
        "latency",
    }
)

#: (module, function, parameter) allowed a literal default anyway
EXEMPT = {
    # a bootstrap confidence level, not Table I's calculation speed α
    ("durability/stats.py", "bootstrap_rate_interval", "alpha"),
}

#: the one class whose fields may hold platform values
PROFILE = ("fusion/costmodel.py", "SystemProfile")


def _is_numeric_literal(node: ast.AST | None) -> bool:
    """``5e9``, ``-1``, ``64 * 1024`` or ``field(default=500e6)``."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_numeric_literal(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_numeric_literal(node.left) and _is_numeric_literal(node.right)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field":
        return any(
            kw.arg == "default" and _is_numeric_literal(kw.value) for kw in node.keywords
        )
    return False


def _defaulted(tree: ast.Module):
    """Yield (owner, name) for every numeric-literal default of a
    platform-named parameter or class-level annotated field."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            pairs += list(zip(args.kwonlyargs, args.kw_defaults))
            for arg, default in pairs:
                if arg.arg in PLATFORM_NAMES and _is_numeric_literal(default):
                    yield node.name, arg.arg
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id in PLATFORM_NAMES | {"gamma"}
                    and _is_numeric_literal(stmt.value)
                ):
                    yield node.name, stmt.target.id


def _scan() -> tuple[list[str], set[str]]:
    """(offending ``module::owner(name)`` entries, SystemProfile's
    defaulted platform fields)."""
    offences, profile_fields = [], set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, name in _defaulted(tree):
            if (module, owner) == PROFILE:
                profile_fields.add(name)
            elif name != "gamma" and (module, owner, name) not in EXEMPT:
                offences.append(f"{module}::{owner}({name})")
    return offences, profile_fields


class TestOneSource:
    def test_no_platform_default_outside_system_profile(self):
        offences, _ = _scan()
        assert not offences, (
            "platform constants must come from SystemProfile, not a literal "
            f"default: {offences}"
        )

    def test_the_scan_sees_system_profile(self):
        """The referee is not vacuous: it finds the profile's own seven."""
        _, profile_fields = _scan()
        assert profile_fields == {
            "alpha",
            "lam",
            "phi",
            "gamma",
            "disk_bandwidth",
            "io_latency",
            "net_latency",
        }

    def test_profile_validates_the_new_fields(self):
        for bad in ({"disk_bandwidth": 0}, {"io_latency": -1e-6}, {"net_latency": -1e-6}):
            with pytest.raises(ValueError):
                SystemProfile(**bad)
        SystemProfile(io_latency=0.0, net_latency=0.0)  # latencies may be zero


#: every field off its default
OFF = SystemProfile(
    alpha=3e9,
    lam=250e6,
    phi=32 * 1024,
    gamma=1024 * 1024,
    disk_bandwidth=300e6,
    io_latency=50e-6,
    net_latency=400e-6,
)


class _OffServer(ServerConfig):
    """The default serving shape on the :data:`OFF` platform."""

    @property
    def profile(self) -> SystemProfile:
        return dataclasses.replace(OFF, gamma=self.chunk_size)


def _assert_client(client, p):
    assert (client.cpu.alpha, client.nic.bandwidth, client.nic.latency) == (
        p.alpha,
        p.lam,
        p.net_latency,
    )


class TestPlumbing:
    def test_every_field_is_off_its_default(self):
        default = SystemProfile()
        for f in dataclasses.fields(SystemProfile):
            assert getattr(OFF, f.name) != getattr(default, f.name), f.name

    def test_cluster_resources_carry_the_profile(self):
        config = ClusterConfig(
            num_nodes=16,
            profile=OFF,
            racks=4,
            dcs=2,
            rack_oversubscription=5.0,
            dc_oversubscription=10.0,
        )
        cluster = Cluster(config, width=6)
        for node in cluster.nodes:
            disk, nic, cpu = node.disk, node.nic, node.cpu
            assert (disk.bandwidth, disk.io_latency, disk.phi) == (
                OFF.disk_bandwidth,
                OFF.io_latency,
                OFF.phi,
            )
            assert (nic.bandwidth, nic.latency) == (OFF.lam, OFF.net_latency)
            assert cpu.alpha == OFF.alpha
        _assert_client(cluster.client, OFF)
        fabric = cluster.executor.fabric
        uplinks = list(fabric.rack_uplinks.values()) + list(fabric.dc_links.values())
        assert len(uplinks) == 4 + 2
        for up in uplinks:
            assert up.bandwidth == pytest.approx(OFF.lam * up.members / up.oversubscription)
            assert up.latency == OFF.net_latency

    def test_store_frontends_and_metadata_carry_the_profile(self):
        store = ObjectStore(_OffServer(frontends=3))
        assert store.cluster.config.profile == store.config.profile
        assert len(store.frontends) == 3
        for client in store.frontends:
            _assert_client(client, OFF)
        assert store.metadata_latency == OFF.net_latency
        for node in store.cluster.nodes:
            assert node.disk.bandwidth == OFF.disk_bandwidth

    def test_repair_hours_read_the_profile_disk(self):
        b, b2 = 500e6, 125e6
        base = ReliabilityModel(8, 3, profile=SystemProfile(disk_bandwidth=b))
        slow = ReliabilityModel(8, 3, profile=SystemProfile(disk_bandwidth=b2))
        gamma = base.profile.gamma
        for scheme in ("rs", "msr", "ecfusion"):
            moved = slow.repair_hours(scheme) - base.repair_hours(scheme)
            assert moved == pytest.approx(gamma * (1 / b2 - 1 / b) / 3600)
