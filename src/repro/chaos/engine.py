"""The chaos engine: turns a seeded fault schedule into live cluster state.

The engine layers on the DES kernel without touching its semantics:

* every fault (and its heal) is a **daemon** timer — faults fire while
  real work is pending but never keep the simulation alive, so a storm
  scheduled past the workload's natural end simply doesn't happen;
* transient slowdowns multiply the target resources' service times via
  their ``derate`` knobs and divide them back on heal;
* partitions flip membership in :class:`ChaosState`, which the plan
  executor consults — transfers against a dark node stall for the
  profile's timeout and then fail with
  :class:`~repro.chaos.faults.PartitionError`;
* silent corruption lands in :attr:`ChaosState.corrupted` and stays
  invisible until the background scrubber (a daemon callback chain that
  charges real disk time for its checksum reads) walks the working set
  and notices.

Everything is deterministic: the schedule is drawn up-front from the
chaos seed, scrub order follows namenode registration order, and retry
backoff is exponential with no jitter — the same seed replays the same
storm event-for-event.
"""

from __future__ import annotations

from typing import Callable, Hashable

from ..telemetry import METRICS, TRACER
from .faults import (
    ChaosConfig,
    ChaosProfile,
    CorruptionFault,
    FaultSchedule,
    NodeKillFault,
    PartitionFault,
    SlowdownFault,
    generate_schedule,
)

__all__ = ["ChaosState", "ChaosEngine"]


class ChaosState:
    """Live fault state the cluster substrate consults on every operation.

    Also the home of the *conversion journal*: ``begin_conversion`` /
    ``end_conversion`` bracket every in-simulation RS↔MSR transform so
    the invariant harness can prove no stripe is ever left half-converted
    in namenode metadata.
    """

    def __init__(
        self,
        partition_timeout: float = 1.0,
        retry_backoff: float = 0.5,
        max_retries: int = 6,
    ):
        if partition_timeout <= 0 or retry_backoff <= 0 or max_retries < 0:
            raise ValueError("invalid retry knobs")
        self.partition_timeout = partition_timeout
        self.retry_backoff = retry_backoff
        self.max_retries = max_retries
        self._partitioned: dict[int, int] = {}  # node -> active partition count
        self.corrupted: set[tuple[Hashable, int]] = set()
        self.detected: set[tuple[Hashable, int]] = set()
        self.converting: set[Hashable] = set()
        # counters the summary and invariant harness read
        self.retries = 0
        self.partition_timeouts = 0
        self.conversions_committed = 0
        self.conversions_aborted = 0

    # -- partitions --------------------------------------------------------
    def is_partitioned(self, node: int) -> bool:
        """Is this node currently unreachable?"""
        return self._partitioned.get(node, 0) > 0

    def partition(self, nodes) -> None:
        """Mark nodes dark (partitions may overlap; counts nest)."""
        for node in nodes:
            self._partitioned[node] = self._partitioned.get(node, 0) + 1

    def heal(self, nodes) -> None:
        """Undo one partition layer for each node."""
        for node in nodes:
            count = self._partitioned.get(node, 0) - 1
            if count > 0:
                self._partitioned[node] = count
            else:
                self._partitioned.pop(node, None)

    def partitioned_nodes(self) -> list[int]:
        """All currently-dark nodes (sorted, for deterministic reports)."""
        return sorted(n for n, c in self._partitioned.items() if c > 0)

    # -- corruption --------------------------------------------------------
    def corrupt(self, stripe: Hashable, slot: int) -> None:
        """Silently rot one chunk (the scrubber has not seen it yet)."""
        self.corrupted.add((stripe, slot))

    def detect(self, stripe: Hashable, slot: int) -> None:
        """The scrubber's checksum pass noticed the rot."""
        self.detected.add((stripe, slot))

    def repair_chunk(self, stripe: Hashable, slot: int) -> None:
        """A rebuilt chunk is clean: clear any corruption bookkeeping."""
        self.corrupted.discard((stripe, slot))
        self.detected.discard((stripe, slot))

    def rewrite_stripe(self, stripe: Hashable) -> None:
        """A full-stripe write re-materialises every chunk of the stripe."""
        self.corrupted = {c for c in self.corrupted if c[0] != stripe}
        self.detected = {c for c in self.detected if c[0] != stripe}

    def latent_corruption(self) -> set[tuple[Hashable, int]]:
        """Corrupted chunks the scrubber has not yet detected."""
        return self.corrupted - self.detected

    # -- conversion journal ------------------------------------------------
    def begin_conversion(self, stripe: Hashable, namenode) -> None:
        """Journal a conversion start; the stripe is now mid-flight."""
        self.converting.add(stripe)
        namenode.lookup(stripe).extra["converting"] = True

    def end_conversion(self, stripe: Hashable, namenode, committed: bool) -> None:
        """Close the journal entry: commit or roll back atomically."""
        self.converting.discard(stripe)
        info = namenode.lookup(stripe)
        info.extra.pop("converting", None)
        if committed:
            self.conversions_committed += 1
            info.extra["conversions"] = info.extra.get("conversions", 0) + 1
        else:
            self.conversions_aborted += 1

    # -- retry accounting ---------------------------------------------------
    def note_retry(self) -> None:
        self.retries += 1
        if METRICS.enabled:
            METRICS.counter("chaos.repair.retries", unit="retries").inc()

    def note_partition_timeout(self, node: int) -> None:
        self.partition_timeouts += 1
        if METRICS.enabled:
            METRICS.counter("chaos.partition.timeouts", unit="timeouts").inc()


class ChaosEngine:
    """Injects one :class:`FaultSchedule` into a live cluster.

    Parameters
    ----------
    config:
        Profile + seed (+ invariant knobs, consumed by ``run_workload``).
    cluster:
        The :class:`~repro.cluster.Cluster` under test.
    scheme:
        The active planner — its ``k``/``width`` bound the corruption
        address space and per-stripe erasure budget.
    failed_blocks:
        The driver's live set of lost-but-not-rebuilt chunks; the
        corruption injector consults it so an injected fault never pushes
        a stripe beyond its code tolerance (storms stay *survivable* by
        construction; deliberate beyond-tolerance scenarios are built in
        tests via direct state manipulation).
    num_stripes:
        Working-set size used when drawing corruption targets.
    """

    def __init__(
        self,
        config: ChaosConfig,
        cluster,
        scheme,
        failed_blocks: set | None = None,
        num_stripes: int | None = None,
    ):
        self.config = config
        self.profile: ChaosProfile = config.resolved()
        self.cluster = cluster
        self.scheme = scheme
        self.failed_blocks = failed_blocks if failed_blocks is not None else set()
        self.state = ChaosState(
            partition_timeout=self.profile.partition_timeout,
            retry_backoff=self.profile.retry_backoff,
            max_retries=self.profile.max_retries,
        )
        self.schedule: FaultSchedule = generate_schedule(
            self.profile,
            num_nodes=len(cluster.nodes),
            racks=cluster.namenode.racks,
            num_stripes=max(1, num_stripes or cluster.namenode.stripe_count or 1),
            blocks_per_stripe=scheme.k,
            seed=config.seed,
            dcs=getattr(cluster.namenode, "dcs", 1),
        )
        #: set by the workload driver: spawns a repair for a detected chunk
        self.on_corruption_detected: Callable[[Hashable, int], None] | None = None
        # applied/suppressed accounting for the campaign summary
        self.applied = {"slowdown": 0, "partition": 0, "corruption": 0, "kill": 0}
        self.suppressed_corruptions = 0
        self.scrub_scans = 0
        self.scrub_chunks = 0
        self.scrub_detected = 0

    # -- wiring -------------------------------------------------------------
    def attach(self) -> None:
        """Arm every fault timer (daemons) and start the scrubber."""
        sim = self.cluster.sim
        for fault in self.schedule.slowdowns:
            sim.timeout(fault.time, daemon=True).wait(
                lambda _, f=fault: self._apply_slowdown(f)
            )
        for fault in self.schedule.partitions:
            sim.timeout(fault.time, daemon=True).wait(
                lambda _, f=fault: self._apply_partition(f)
            )
        for fault in self.schedule.corruptions:
            sim.timeout(fault.time, daemon=True).wait(
                lambda _, f=fault: self._apply_corruption(f)
            )
        for fault in self.schedule.kills:
            sim.timeout(fault.time, daemon=True).wait(
                lambda _, f=fault: self._apply_kill(f)
            )
        if self.profile.corruptions or self.schedule.corruptions:
            sim.call_later(0.0, ChaosEngine._scrub_start, self, daemon=True)

    # -- fault application ---------------------------------------------------
    def _node_resources(self, node_id: int, names: tuple[str, ...]):
        node = self.cluster.nodes[node_id]
        return [getattr(node, name) for name in names]

    def _apply_slowdown(self, fault: SlowdownFault) -> None:
        sim = self.cluster.sim
        for res in self._node_resources(fault.node, fault.resources):
            res.derate *= fault.factor
        self.applied["slowdown"] += 1
        self._note_fault("slowdown", node=fault.node, factor=fault.factor,
                         duration=fault.duration, resources=",".join(fault.resources))

        def _heal(_):
            for res in self._node_resources(fault.node, fault.resources):
                res.derate /= fault.factor
                if abs(res.derate - 1.0) < 1e-12:
                    res.derate = 1.0  # snap accumulated float error back to healthy
            self._note_heal("slowdown", node=fault.node)

        sim.timeout(fault.duration, daemon=True).wait(_heal)

    def _partition_members(self, fault: PartitionFault) -> list[int]:
        if fault.dc is not None:
            return self.cluster.namenode.nodes_in_dc(
                fault.dc % self.cluster.namenode.dcs
            )
        if fault.rack is not None:
            return self.cluster.namenode.nodes_in_rack(
                fault.rack % self.cluster.namenode.racks
            )
        return [fault.node % len(self.cluster.nodes)]

    def _apply_partition(self, fault: PartitionFault) -> None:
        sim = self.cluster.sim
        members = self._partition_members(fault)
        self.state.partition(members)
        self.applied["partition"] += 1
        self._note_fault(
            "partition",
            nodes=",".join(map(str, members)),
            duration=fault.duration,
            rack=fault.rack if fault.rack is not None else -1,
            dc=fault.dc if fault.dc is not None else -1,
        )

        def _heal(_):
            self.state.heal(members)
            self._note_heal("partition", nodes=",".join(map(str, members)))

        sim.timeout(fault.duration, daemon=True).wait(_heal)

    def _stripe_erasures(self, stripe_id: Hashable) -> int:
        failed = sum(1 for fb in self.failed_blocks if fb[0] == stripe_id)
        rotten = sum(1 for c in self.state.corrupted if c[0] == stripe_id)
        return failed + rotten

    def _apply_corruption(self, fault: CorruptionFault) -> None:
        stripes = self.cluster.namenode.stripes()
        if fault.stripe_index >= len(stripes):
            self.suppressed_corruptions += 1  # stripe never written: nothing to rot
            return
        stripe_id = stripes[fault.stripe_index].stripe_id
        tolerance = max(1, self.scheme.width - self.scheme.k)
        if (stripe_id, fault.slot) in self.state.corrupted or self._stripe_erasures(
            stripe_id
        ) >= tolerance:
            # injecting would push the stripe past its erasure budget —
            # storms stay survivable by construction
            self.suppressed_corruptions += 1
            if TRACER.enabled:
                TRACER.emit(
                    "fault-suppressed",
                    ts=self.cluster.sim.now,
                    type="corruption",
                    stripe=stripe_id,
                    slot=fault.slot,
                )
            return
        self.state.corrupt(stripe_id, fault.slot)
        self.applied["corruption"] += 1
        self._note_fault("corruption", stripe=stripe_id, slot=fault.slot)

    def _apply_kill(self, fault: NodeKillFault) -> None:
        node = self.cluster.nodes[fault.node % len(self.cluster.nodes)]
        if not node.alive:
            return
        node.fail()
        self.applied["kill"] += 1
        self._note_fault("kill", node=node.node_id)

    def _note_fault(self, fault_type: str, **fields) -> None:
        if METRICS.enabled:
            METRICS.counter(f"chaos.faults.{fault_type}", unit="faults").inc()
        if TRACER.enabled:
            TRACER.emit("fault", ts=self.cluster.sim.now, type=fault_type, **fields)

    def _note_heal(self, fault_type: str, **fields) -> None:
        if METRICS.enabled:
            METRICS.counter(f"chaos.heals.{fault_type}", unit="heals").inc()
        if TRACER.enabled:
            TRACER.emit("fault-heal", ts=self.cluster.sim.now, type=fault_type, **fields)

    # -- scrubbing -----------------------------------------------------------
    # The scrubber is a daemon callback chain: a zero-delay kick-off, then
    # one ``scrub_interval`` entry per scan, and within a scan one disk
    # read per eligible chunk (:class:`_Scan`).

    def _scrub_start(self) -> None:
        self.cluster.sim.call_later(
            self.profile.scrub_interval, ChaosEngine._scrub_scan, self, daemon=True
        )

    def _scrub_scan(self) -> None:
        """Periodically checksum-read every data chunk in the set.

        Each verification charges ``verify_bytes`` of real disk time on
        the owning node (checksums live next to the data), so scrubbing
        contends with foreground I/O exactly like HDFS's block scanner.
        Dark or dead nodes are skipped and revisited next scan.
        """
        self.scrub_scans += 1
        if METRICS.enabled:
            METRICS.counter("chaos.scrub.scans", unit="scans").inc()
        _Scan(self, self.cluster.namenode.stripes()).next_chunk()

    def _on_detect(self, stripe_id: Hashable, slot: int) -> None:
        self.state.detect(stripe_id, slot)
        self.scrub_detected += 1
        if METRICS.enabled:
            METRICS.counter("chaos.scrub.detected", unit="chunks").inc()
        if TRACER.enabled:
            TRACER.emit(
                "scrub-detect", ts=self.cluster.sim.now, stripe=stripe_id, slot=slot
            )
        if self.on_corruption_detected is not None:
            self.on_corruption_detected(stripe_id, slot)

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready campaign summary (also mirrored into telemetry)."""
        return {
            "profile": self.profile.name,
            "seed": self.config.seed,
            "scheduled": self.schedule.counts(),
            "applied": dict(self.applied),
            "suppressed_corruptions": self.suppressed_corruptions,
            "repair_retries": self.state.retries,
            "partition_timeouts": self.state.partition_timeouts,
            "scrub": {
                "scans": self.scrub_scans,
                "chunks": self.scrub_chunks,
                "detected": self.scrub_detected,
            },
            "latent_corruption": sorted(
                [list(map(str, key)) for key in self.state.latent_corruption()]
            ),
            "conversions": {
                "committed": self.state.conversions_committed,
                "aborted": self.state.conversions_aborted,
            },
        }


class _Scan:
    """One scrubber pass: a cursor over the stripes registered when the
    scan started.  Whether a chunk is read (its node alive and not
    partitioned) is decided when the cursor reaches it."""

    __slots__ = ("engine", "stripes", "at", "slot", "key")

    def __init__(self, engine: ChaosEngine, stripes: list):
        self.engine = engine
        self.stripes = stripes
        self.at = 0
        self.slot = 0

    def next_chunk(self) -> None:
        """Read the next eligible chunk, or book the next scan."""
        engine = self.engine
        nodes, state = engine.cluster.nodes, engine.state
        while self.at < len(self.stripes):
            info = self.stripes[self.at]
            while self.slot < min(engine.scheme.k, len(info.placement)):
                slot = self.slot
                self.slot += 1
                node = nodes[info.placement[slot]]
                if not node.alive or state.is_partitioned(node.node_id):
                    continue
                self.key = (info.stripe_id, slot)
                node.disk.read_cb(engine.profile.verify_bytes, _Scan.verified, self)
                return
            self.at += 1
            self.slot = 0
        engine._scrub_start()

    def verified(self) -> None:
        engine = self.engine
        engine.scrub_chunks += 1
        if METRICS.enabled:
            METRICS.counter("chaos.scrub.chunks", unit="chunks").inc()
        state = engine.state
        if self.key in state.corrupted and self.key not in state.detected:
            engine._on_detect(*self.key)
        self.next_chunk()
