"""Operation plans — the currency between coding schemes and the simulator.

A scheme planner turns a workload event ("write stripe 7", "recover block 3
of stripe 7") into one or more :class:`OpPlan` objects describing *what
resources the operation touches*: bytes read per stripe slot, bytes written
per slot, and GF compute operations.  The cluster simulator executes plans
against simulated disks/NICs/CPUs; the analytic metrics module sums the
same plans directly.  Keeping plans data-only means a scheme's cost model
is exercised identically by both paths.

Plans are immutable values — ``reads`` and ``writes`` are read-only
mappings and the byte totals are computed once, at construction — so a
planner hands out one shared plan per shape instead of building a fresh
one for every request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

__all__ = ["PlanKind", "OpPlan"]


class PlanKind(str, Enum):
    """What a plan represents (used for accounting breakdowns)."""

    WRITE = "write"
    READ = "read"
    RECOVERY = "recovery"
    CONVERSION = "conversion"


@dataclass(frozen=True)
class OpPlan:
    """One storage operation against a stripe's placement group.

    Attributes
    ----------
    kind:
        Operation class; conversions are charged to the scheme that
        triggered them.
    compute_ops:
        GF multiply/XOR byte-operations performed by the coordinating CPU.
    reads:
        Bytes to read per stripe slot (slot → bytes); a read-only copy of
        the mapping passed in.
    writes:
        Bytes to write per stripe slot (read-only, like ``reads``).
    distributed:
        When True the plan's traffic does not funnel through the single
        coordinator NIC — the work is spread across the involved nodes
        (code conversions aggregate per group in place, unlike a client
        write or a single-node rebuild which have one natural sink).
    bytes_read, bytes_written, transfer_bytes:
        Total read traffic, total write traffic, and their sum (all bytes
        that cross the network for this plan).
    """

    kind: PlanKind
    compute_ops: float = 0.0
    reads: Mapping[int, float] = field(default_factory=dict)
    writes: Mapping[int, float] = field(default_factory=dict)
    distributed: bool = False
    bytes_read: float = field(init=False, repr=False, compare=False)
    bytes_written: float = field(init=False, repr=False, compare=False)
    transfer_bytes: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reads = MappingProxyType(dict(self.reads))
        writes = MappingProxyType(dict(self.writes))
        bytes_read, bytes_written = sum(reads.values()), sum(writes.values())
        set_field = object.__setattr__
        set_field(self, "reads", reads)
        set_field(self, "writes", writes)
        set_field(self, "bytes_read", bytes_read)
        set_field(self, "bytes_written", bytes_written)
        set_field(self, "transfer_bytes", bytes_read + bytes_written)
