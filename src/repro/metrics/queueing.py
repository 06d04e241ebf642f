"""Analytic queueing cross-check for the discrete-event simulator.

The open-mode simulator is, at its bottleneck, an M/G/1 queue: Poisson
request arrivals share the single client NIC, whose service time depends
on the request type (a write streams the whole stripe, a read one chunk).
The Pollaczek–Khinchine formula therefore *predicts* the simulator's mean
latency from first principles:

    W = λ·E[S²] / (2·(1 − λ·E[S]))          (mean waiting time)
    response = W + E[S] + (pipeline constant)

Tests compare this prediction against actual open-mode replays — an
independent check that the event engine's FIFO queueing is implemented
correctly, not just that it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fusion.costmodel import SystemProfile
from ..hybrid.planners import SchemePlanner

__all__ = ["ServiceMix", "mg1_wait", "mg1_response", "client_nic_mix"]


@dataclass(frozen=True)
class ServiceMix:
    """A discrete service-time distribution: (probability, seconds) pairs."""

    items: tuple[tuple[float, float], ...]

    def __post_init__(self):
        total = sum(p for p, _ in self.items)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        if any(p < 0 or s < 0 for p, s in self.items):
            raise ValueError("probabilities and service times must be non-negative")

    @property
    def mean(self) -> float:
        """E[S]."""
        return sum(p * s for p, s in self.items)

    @property
    def second_moment(self) -> float:
        """E[S²]."""
        return sum(p * s * s for p, s in self.items)


def mg1_wait(arrival_rate: float, mix: ServiceMix) -> float:
    """Mean M/G/1 waiting time (Pollaczek–Khinchine).

    Raises if the queue is unstable (λ·E[S] ≥ 1).
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    utilization = arrival_rate * mix.mean
    if utilization >= 1.0:
        raise ValueError(f"unstable queue: utilization {utilization:.3f} >= 1")
    return arrival_rate * mix.second_moment / (2.0 * (1.0 - utilization))


def mg1_response(arrival_rate: float, mix: ServiceMix) -> float:
    """Mean response time: waiting + service."""
    return mg1_wait(arrival_rate, mix) + mix.mean


def client_nic_mix(
    scheme: SchemePlanner, read_fraction: float, profile: SystemProfile
) -> ServiceMix:
    """Service-time mix at the client NIC for one scheme's read/write ops.

    Derived from the scheme's own plans: a write's NIC occupancy is the
    plan's total written bytes, a read's its read bytes, each at the
    profile's λ bytes/second plus its fixed per-transfer latency.
    """
    if not 0 <= read_fraction <= 1:
        raise ValueError("read_fraction must be in [0, 1]")
    lam, net_latency = profile.lam, profile.net_latency
    write_plans = scheme.plan_write("__mg1probe_w")
    write_bytes = sum(p.bytes_written for p in write_plans)
    read_plans = scheme.plan_read("__mg1probe_r", 0)
    read_bytes = sum(p.reads.get(0, 0.0) for p in read_plans)
    write_s = net_latency + write_bytes / lam
    read_s = net_latency + read_bytes / lam
    return ServiceMix(
        items=(
            (read_fraction, read_s),
            (1.0 - read_fraction, write_s),
        )
    )
