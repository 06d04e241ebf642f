"""Deterministic fault injection + invariant harness (``repro.chaos``).

The paper evaluates EC-Fusion under clean, permanent chunk losses; this
package stress-tests the reproduction under realistic failure *weather* —
stragglers, link degradation, rack partitions, silent corruption — while
a property harness proves the things that must never break: durability,
metadata consistency, and conversion safety.

Everything is opt-in and seeded.  With no :class:`ChaosConfig` attached,
a simulation is bit-identical to the chaos-free code path; with one, the
same ``--chaos-seed`` replays the same storm event-for-event.

* :mod:`repro.chaos.faults` — fault dataclasses, named profiles
  (:data:`PROFILES`), seeded :func:`generate_schedule`;
* :mod:`repro.chaos.engine` — :class:`ChaosEngine` applies a schedule to
  a live cluster (derating, partitions, corruption + scrubber);
* :mod:`repro.chaos.invariants` — :class:`InvariantChecker` sweeps
  durability/metadata/conversion invariants as a kernel daemon.
"""

from .._lazy import lazy_exports

__all__ = [
    "ChaosError",
    "PartitionError",
    "SlowdownFault",
    "PartitionFault",
    "CorruptionFault",
    "NodeKillFault",
    "FaultSchedule",
    "ChaosProfile",
    "ChaosConfig",
    "PROFILES",
    "resolve_profile",
    "generate_schedule",
    "ChaosState",
    "ChaosEngine",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "verify_conversion_safety",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("ChaosEngine", "ChaosState"),
    ".faults": ("PROFILES", "ChaosConfig", "ChaosError", "ChaosProfile", "CorruptionFault",
                "FaultSchedule", "NodeKillFault", "PartitionError", "PartitionFault",
                "SlowdownFault", "generate_schedule", "resolve_profile"),
    ".invariants": ("InvariantChecker", "InvariantReport", "InvariantViolation",
                    "verify_conversion_safety"),
})  # fmt: skip
