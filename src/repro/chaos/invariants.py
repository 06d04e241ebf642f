"""Property harness: invariants the cluster must hold under any storm.

The checker walks live simulation state at a configurable sim-time
interval (as a kernel daemon, so checking never changes what happens or
when the run ends) and again at end of run.  Three invariant families:

**Durability** — every live stripe is decodable: its outstanding erasures
(lost-but-unrebuilt chunks plus corrupted-and-undetected/unrepaired
chunks) stay within the scheme's erasure tolerance, *or* the stripe has
been explicitly reported unrecoverable.  Losing data silently is the one
unforgivable failure mode; losing it loudly is a reported event.

The tolerance used is ``width − k`` — exact for MDS codes (RS, MSR);
for LRC it is the global upper bound (some erasure *patterns* within the
bound are not decodable by local repair alone, but LRC's global parities
still cover them, so the bound is the correct durability criterion).

**Metadata consistency** — the namenode's picture agrees with the nodes:
placements have exactly ``width`` distinct in-range nodes, node objects
sit at their registered ids, and every failed/corrupted chunk address
refers to a registered stripe and a valid slot.

**Conversion safety** — the RS↔MSR journal is clean: the set of stripes
the chaos state believes are mid-conversion exactly matches the stripes
the namenode has flagged ``converting``, and at end of run the journal is
empty (every conversion either committed or rolled back — no stripe is
ever left half-converted).  :func:`verify_conversion_safety` additionally
proves the codec-level half over every edge of the code-family graph:
conversions under injected source losses are *byte-identical* to the
fault-free conversion or abort with inputs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..telemetry import METRICS, TRACER

__all__ = [
    "InvariantViolation",
    "InvariantReport",
    "InvariantChecker",
    "verify_conversion_safety",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough context to reproduce it."""

    time: float
    invariant: str  # "durability" | "metadata" | "conversion"
    stripe: Hashable | None
    detail: str


@dataclass
class InvariantReport:
    """Outcome of all invariant sweeps over one run."""

    checks: int = 0
    stripes_checked: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)
    #: stripes observed with erasures whose repair was *queued but not yet
    #: dispatched* by the recovery scheduler — the erasure window is open
    #: even though no pipeline has started (dicts: stripe/time/queue_depth)
    at_risk: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "stripes_checked": self.stripes_checked,
            "violations": [
                {
                    "time": v.time,
                    "invariant": v.invariant,
                    "stripe": str(v.stripe),
                    "detail": v.detail,
                }
                for v in self.violations
            ],
            "at_risk": [dict(entry) for entry in self.at_risk],
        }


class InvariantChecker:
    """Sweeps cluster + chaos state, recording violations (never raising).

    Parameters
    ----------
    cluster:
        The live :class:`~repro.cluster.Cluster`.
    scheme:
        Active planner; ``width − k`` bounds each stripe's erasure budget.
    state:
        The :class:`~repro.chaos.ChaosState` (corruption + journal), or
        ``None`` when only failure-stream invariants are wanted.
    failed_blocks:
        The driver's live set of lost-but-unrebuilt ``(stripe, slot)``.
    unrecoverable:
        Live list of dicts (``stripe``/``block``/``reason``/``time``) the
        driver appends to whenever it *gives up* on a repair — the loud
        channel that makes beyond-tolerance loss legal.
    interval:
        Sim-seconds between sweeps when attached as a daemon.
    scheduler:
        The cluster's :class:`~repro.cluster.RecoveryScheduler` (or
        ``None``).  With a scheduler bound, the durability sweep also
        flags stripes whose repair is *queued but unscheduled* as
        at-risk — the stripe's erasure window is open from the moment the
        chunk is lost, not from the moment its pipeline starts.
    """

    def __init__(
        self,
        cluster,
        scheme,
        state=None,
        failed_blocks: set | None = None,
        unrecoverable: list | None = None,
        interval: float = 5.0,
        scheduler=None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.cluster = cluster
        self.scheme = scheme
        self.state = state
        self.failed_blocks = failed_blocks if failed_blocks is not None else set()
        self.unrecoverable = unrecoverable if unrecoverable is not None else []
        self.interval = interval
        self.scheduler = scheduler
        self.report = InvariantReport()
        self._flagged_at_risk: set = set()

    # -- plumbing -----------------------------------------------------------
    def _violate(self, invariant: str, stripe, detail: str) -> None:
        violation = InvariantViolation(
            time=self.cluster.sim.now, invariant=invariant, stripe=stripe, detail=detail
        )
        self.report.violations.append(violation)
        if METRICS.enabled:
            METRICS.counter("chaos.invariant.violations", unit="violations").inc()
        if TRACER.enabled:
            TRACER.emit(
                "invariant-violation",
                ts=violation.time,
                invariant=invariant,
                stripe=stripe,
                detail=detail,
            )

    def _reported_stripes(self) -> set:
        return {entry["stripe"] for entry in self.unrecoverable}

    def _erasures_by_stripe(self) -> dict:
        erasures: dict[Hashable, set[int]] = {}
        for stripe, slot in self.failed_blocks:
            erasures.setdefault(stripe, set()).add(slot)
        if self.state is not None:
            for stripe, slot in self.state.corrupted:
                erasures.setdefault(stripe, set()).add(slot)
        return erasures

    # -- the three invariant families ---------------------------------------
    def check_durability(self) -> None:
        """Every stripe decodable within tolerance, or loudly reported."""
        tolerance = self.scheme.width - self.scheme.k
        reported = self._reported_stripes()
        erasures = self._erasures_by_stripe()
        for info in self.cluster.namenode.stripes():
            lost = erasures.get(info.stripe_id, ())
            if len(lost) > tolerance and info.stripe_id not in reported:
                self._violate(
                    "durability",
                    info.stripe_id,
                    f"{len(lost)} erasures (slots {sorted(lost)}) exceed "
                    f"tolerance {tolerance} and the stripe was never reported "
                    f"unrecoverable",
                )
        self._sweep_at_risk()

    def _sweep_at_risk(self) -> None:
        """Flag stripes with erased chunks whose repair is still queued.

        A stripe is exposed from the moment a chunk is lost — not from
        the moment its repair pipeline starts.  With a scheduler bound,
        any job sitting in the admission queue marks its stripe at-risk
        (once per stripe, first observation wins); this is reporting, not
        a violation — the window only becomes a durability violation when
        erasures exceed tolerance.
        """
        if self.scheduler is None:
            return
        for job in self.scheduler.pending_jobs():
            if job.stripe in self._flagged_at_risk:
                continue
            self._flagged_at_risk.add(job.stripe)
            entry = {
                "stripe": str(job.stripe),
                "time": self.cluster.sim.now,
                "queue_depth": self.scheduler.queue_depth,
            }
            self.report.at_risk.append(entry)
            if METRICS.enabled:
                METRICS.counter("chaos.invariant.at_risk", unit="stripes").inc()
            if TRACER.enabled:
                TRACER.emit(
                    "stripe-at-risk",
                    ts=self.cluster.sim.now,
                    stripe=job.stripe,
                    block=job.block,
                    queue_depth=self.scheduler.queue_depth,
                )

    def check_metadata(self) -> None:
        """Namenode placement and chunk addresses agree with the nodes."""
        nn = self.cluster.namenode
        num_nodes = len(self.cluster.nodes)
        for node_id, node in enumerate(self.cluster.nodes):
            if node.node_id != node_id:
                self._violate(
                    "metadata", None, f"node at index {node_id} reports id {node.node_id}"
                )
        stripe_ids = set()
        for info in nn.stripes():
            stripe_ids.add(info.stripe_id)
            if len(info.placement) != nn.width:
                self._violate(
                    "metadata",
                    info.stripe_id,
                    f"placement has {len(info.placement)} slots, width is {nn.width}",
                )
            if len(set(info.placement)) != len(info.placement):
                self._violate(
                    "metadata", info.stripe_id, f"duplicate nodes in {info.placement}"
                )
            bad = [n for n in info.placement if not 0 <= n < num_nodes]
            if bad:
                self._violate(
                    "metadata", info.stripe_id, f"placement names unknown nodes {bad}"
                )
        addresses = set(self.failed_blocks)
        if self.state is not None:
            addresses |= self.state.corrupted | self.state.detected
        for stripe, slot in addresses:
            if stripe not in stripe_ids:
                self._violate(
                    "metadata", stripe, f"chunk address for unregistered stripe ({slot})"
                )
            elif not 0 <= slot < nn.width:
                self._violate(
                    "metadata", stripe, f"chunk address slot {slot} out of range"
                )

    def check_conversion_journal(self) -> None:
        """Chaos journal and namenode ``converting`` flags agree exactly."""
        if self.state is None:
            return
        flagged = {
            info.stripe_id
            for info in self.cluster.namenode.stripes()
            if info.extra.get("converting")
        }
        for stripe in self.state.converting - flagged:
            self._violate(
                "conversion", stripe, "journalled as converting but not flagged"
            )
        for stripe in flagged - self.state.converting:
            self._violate(
                "conversion", stripe, "flagged converting with no journal entry"
            )

    # -- sweeps -------------------------------------------------------------
    def check(self) -> None:
        """One full sweep of all invariant families."""
        self.report.checks += 1
        self.report.stripes_checked += self.cluster.namenode.stripe_count
        if METRICS.enabled:
            METRICS.counter("chaos.invariant.checks", unit="checks").inc()
        if TRACER.enabled:
            TRACER.emit(
                "invariant-check",
                ts=self.cluster.sim.now,
                stripes=self.cluster.namenode.stripe_count,
                violations=len(self.report.violations),
            )
        self.check_durability()
        self.check_metadata()
        self.check_conversion_journal()

    def attach(self) -> None:
        """Run sweeps as a kernel daemon every ``interval`` sim-seconds."""

        def loop():
            while True:
                yield self.cluster.sim.timeout(self.interval, daemon=True)
                self.check()

        self.cluster.sim.process(loop(), daemon=True)

    def finalize(self) -> InvariantReport:
        """End-of-run sweep + terminal-state invariants."""
        self.check()
        if self.state is not None and self.state.converting:
            self._violate(
                "conversion",
                None,
                f"journal not empty at end of run: {sorted(map(str, self.state.converting))}",
            )
        reported = self._reported_stripes()
        for stripe, slot in sorted(self.failed_blocks, key=str):
            if stripe not in reported:
                self._violate(
                    "durability",
                    stripe,
                    f"chunk (slot {slot}) still lost at end of run and never "
                    f"reported unrecoverable",
                )
        if self.state is not None:
            for stripe, slot in sorted(self.state.detected, key=str):
                if (stripe, slot) in self.state.corrupted and stripe not in reported:
                    self._violate(
                        "durability",
                        stripe,
                        f"detected corruption (slot {slot}) neither repaired nor "
                        f"reported by end of run",
                    )
        return self.report


def verify_conversion_safety(
    k: int, r: int, rng: np.random.Generator, L: int | None = None
) -> list[str]:
    """Codec-level conversion-safety sweep; returns failure descriptions.

    Runs the one converter, :meth:`~repro.fusion.FusionTransformer.convert`,
    over every ordered edge between the code families the (k, r) shape
    admits — a family whose codec cannot exist at the shape (LRC needs
    z | k) is skipped with a :class:`UserWarning` naming it — and checks:

    * the fault-free conversion equals encoding the target directly;
    * under every single source probe (one data group, or one source
      parity set) the output is **byte-identical** when the lost chunks
      are within the source family's ``tolerance``; beyond it the
      conversion is byte-identical or aborts cleanly;
    * data group 0 together with its source parity set always aborts;
    * an abort raises ``TransformAborted`` and nothing else, leaves the
      stripe bit-for-bit untouched, and closes its journal entry.

    The sweep never raises; an empty return value means the invariant holds.
    """
    import math
    import warnings

    from ..codes import ParameterError
    from ..codes.families import FAMILIES
    from ..fusion.transform import ChunkUnavailable, FusionTransformer, TransformAborted

    tr = FusionTransformer(k=k, r=r)
    families = []
    for code in FAMILIES:
        try:
            tr.codec(code)
        except ParameterError as exc:
            msg = f"conversion sweep at ({k},{r}) skips {code}: {exc}"
            warnings.warn(msg, stacklevel=2)
        else:
            families.append(code)
    if L is None:
        L = 2 * math.lcm(*(tr.codec(c).subpacketization for c in families))
    data = rng.integers(0, 256, (k, L), dtype=np.uint8)
    pristine = data.copy()
    failures: list[str] = []

    def same(a, b):
        return len(a) == len(b) and all(map(np.array_equal, a, b))

    def convert(source, target, *lost):
        """The converted parity, or None after an abort (checked here)."""
        stripe = tr.encode(data, source)
        before = [p.copy() for p in stripe.parity]

        def hook(phase, group):
            if (phase, group) in lost:
                raise ChunkUnavailable(phase, group)

        try:
            tr.convert(stripe, target, fault_hook=hook)
            return stripe.parity
        except TransformAborted:
            if stripe.kind != source or not same(stripe.parity, before):
                failures.append(f"aborted {source}->{target} {lost} mutated its stripe")
        except Exception as exc:
            failures.append(f"{source}->{target} {lost} raised {exc!r}")
        if tr.journal_open:
            failures.append(f"{source}->{target} {lost} left its journal entry open")
        return None

    for source in families:
        codec, tolerance = tr.codec(source), tr.cost_model.family(source).tolerance
        parity_groups = range(tr.q) if source == "msr" else [-1]
        probes = [((), 0)] + [((("data", g),), min(r, k - g * r)) for g in range(tr.q)]
        probes += [((("parity", g),), codec.n - codec.k) for g in parity_groups]
        for target in families:
            if target == source:
                continue
            edge = f"{source}->{target}"
            want = tr.encode(data, target).parity
            for lost, lost_chunks in probes:
                got = convert(source, target, *lost)
                if got is None and lost_chunks <= tolerance:
                    failures.append(f"{edge} lost {lost}: aborted within tolerance")
                elif got is not None and not same(got, want):
                    failures.append(f"{edge} lost {lost}: output differs")
            if convert(source, target, ("data", 0), ("parity", parity_groups[0])):
                failures.append(f"{edge} lost data group 0 and its parities: no abort")
    if not np.array_equal(data, pristine):
        failures.append("a conversion wrote into the stripe's data")
    return failures
