"""Workload adaptation — Algorithm 1 of the paper (§III-C), generalised.

Two tracking queues capture locality: Queue1 logs application accesses,
Queue2 logs recovery requests.  Three triggers drive per-stripe code
changes, each gated by the threshold η (with optional hysteresis Δ from
eq. (2)) on the per-stripe ratio δ = writes/recoveries:

1. a recovery request enters Queue2 and δ < η − Δ → convert the stripe to
   MSR;
2. a write request enters Queue1 and δ ≥ η + Δ → convert the stripe back
   to RS;
3. a recovery entry falls off Queue2's tail → the stripe has cooled, so an
   MSR stripe converts back to RS.

That is the paper's two-code policy, and it stays the default.  Passing
``codes=...`` turns the selector into the *multi-code policy engine*
(ROADMAP item 2): the same queues and triggers, but each trigger re-scores
the stripe across every enabled code family with
:meth:`repro.fusion.costmodel.CostModel.best_code` — per-transition
hysteresis margins included, so stripes don't thrash between neighbouring
codes — and Queue2 evictions return cooled stripes to the default family.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Mapping, Sequence

from ..telemetry import METRICS, TRACER
from .costmodel import CostModel
from .queues import CachePolicy, TrackingQueue

__all__ = ["CodeKind", "Conversion", "AdaptiveSelector"]


class CodeKind(str, Enum):
    """Which code family a stripe is currently stored in.

    The paper's fusion pair is RS/MSR; LRC and FR join once the selector
    runs as the multi-code policy engine.
    """

    RS = "rs"
    MSR = "msr"
    LRC = "lrc"
    FR = "fr"


@dataclass(frozen=True)
class Conversion:
    """A code-change command emitted by the selector."""

    stripe: Hashable
    target: CodeKind
    trigger: str  # "recovery-insert" | "write-insert" | "queue2-evict"


class AdaptiveSelector:
    """Algorithm 1: decides which code family each stripe should hold.

    Two-code RS↔MSR by default (the paper's policy); pass ``codes=...``
    for the multi-code engine over {rs, msr, lrc, fr}.

    The selector owns only *policy state* (queues, counters, flags); the
    caller executes the returned :class:`Conversion` commands and bears
    their cost.

    Parameters
    ----------
    cost_model:
        Supplies η; see :class:`repro.fusion.costmodel.CostModel`.
    queue_capacity:
        Capacity of each tracking queue.
    policy:
        Eviction policy for both queues.
    margin:
        Hysteresis Δ of eq. (2); 0 ≤ Δ < η.
    idle_window:
        Optional extension beyond the paper: expire Queue2 entries not
        touched within the last ``idle_window`` selector events, converting
        their stripes back to RS.  Plain Algorithm 1 (None) only evicts
        under insertion pressure, so the MSR-resident set — and its storage
        premium — survives arbitrarily long failure lulls.
    codes:
        ``None`` (default) keeps the paper's two-code RS↔MSR policy,
        byte-identical to earlier releases.  A tuple of
        :class:`CodeKind`/strings (e.g. ``("rs", "msr", "lrc", "fr")``)
        switches to the multi-code policy engine: every trigger re-scores
        the stripe across these families via
        :meth:`~repro.fusion.costmodel.CostModel.best_code`.
    margins:
        Per-transition hysteresis for the multi-code policy: one scalar
        fraction for every conversion edge, or a mapping from
        ``(current, target)`` code-name pairs (``"default"`` key for the
        rest).  Ignored in two-code mode, which uses ``margin``/η instead.

    Examples
    --------
    >>> from repro.fusion.costmodel import CostModel, SystemProfile
    >>> sel = AdaptiveSelector(CostModel(4, 2, SystemProfile()), queue_capacity=4)
    >>> sel.eta > 0
    True
    >>> sel.on_recovery("s1")        # cold stripe being repaired -> MSR
    [Conversion(stripe='s1', target=<CodeKind.MSR: 'msr'>, trigger='recovery-insert')]
    >>> sel.code_of("s1")
    <CodeKind.MSR: 'msr'>

    The multi-code engine picks the cheapest family instead:

    >>> multi = AdaptiveSelector(
    ...     CostModel(4, 2, SystemProfile()),
    ...     codes=("rs", "msr", "lrc", "fr"),
    ... )
    >>> multi.on_recovery("hot")     # recovery-dominated stripe -> FR
    [Conversion(stripe='hot', target=<CodeKind.FR: 'fr'>, trigger='recovery-insert')]
    """

    def __init__(
        self,
        cost_model: CostModel,
        queue_capacity: int = 1024,
        policy: CachePolicy = CachePolicy.LRU,
        margin: float = 0.0,
        default: CodeKind = CodeKind.RS,
        idle_window: int | None = None,
        codes: Sequence[CodeKind | str] | None = None,
        margins: float | Mapping[tuple[str, str], float] | None = None,
    ):
        if margin < 0:
            raise ValueError("hysteresis margin must be non-negative")
        if idle_window is not None and idle_window <= 0:
            raise ValueError("idle_window must be positive")
        self.cost_model = cost_model
        self.margin = margin
        self.default = default
        self.idle_window = idle_window
        if codes is None:
            self.codes: tuple[CodeKind, ...] | None = None
            self.margins: float | Mapping[tuple[str, str], float] = 0.0
        else:
            kinds = tuple(CodeKind(c) for c in codes)
            if not kinds:
                raise ValueError("codes must be non-empty")
            if len(set(kinds)) != len(kinds):
                raise ValueError(f"duplicate code families in {codes!r}")
            if default not in kinds:
                raise ValueError(f"default {default} not among codes {codes!r}")
            self.codes = kinds
            self.margins = margin if margins is None else margins
            for cur in kinds:  # validate every edge's margin eagerly
                for tgt in kinds:
                    cost_model.transition_margin(self.margins, cur.value, tgt.value)
        self._events = 0
        self.queue1 = TrackingQueue(queue_capacity, policy, name="queue1")  # app accesses
        self.queue2 = TrackingQueue(queue_capacity, policy, name="queue2")  # recoveries
        self._flags: dict[Hashable, CodeKind] = {}
        self._writes: dict[Hashable, int] = defaultdict(int)
        self._recoveries: dict[Hashable, int] = defaultdict(int)
        self.conversions: list[Conversion] = []

    # -- state queries ---------------------------------------------------
    def code_of(self, stripe: Hashable) -> CodeKind:
        """Current coding scheme of a stripe (RS by default)."""
        return self._flags.get(stripe, self.default)

    def delta(self, stripe: Hashable) -> float:
        """δ = writes/recoveries for one stripe; ∞ when never recovered."""
        rec = self._recoveries[stripe]
        if rec == 0:
            return float("inf")
        return self._writes[stripe] / rec

    @property
    def eta(self) -> float:
        return self.cost_model.eta

    # -- Algorithm 1 triggers -----------------------------------------------
    def _expire_idle(self) -> list[Conversion]:
        """Expire Queue2 entries idle for the last ``idle_window`` events.

        Queue2 entries are stamped with this selector-wide clock, so "idle"
        means "no recovery touch within the last ``idle_window`` of *any*
        application/recovery events" — a failure lull ages entries out even
        though no new recoveries arrive to evict them.
        """
        expired = self.queue2.expire_idle(self._events - self.idle_window)
        return self._cool(expired, "idle-expiry") if expired else []

    def _cool(self, entries, trigger: str) -> list[Conversion]:
        """Trigger 3: a cooled non-default stripe returns to the default."""
        out = []
        default = self.default
        for entry in entries:
            if self._flags.get(entry.key, default) is not default:  # code_of(entry.key)
                out.append(self._convert(entry.key, default, trigger))
        return out

    def _retarget(self, stripe: Hashable, trigger: str) -> list[Conversion]:
        """Multi-code re-score of one stripe; converts if a family wins
        through its per-transition hysteresis margin."""
        current = self.code_of(stripe)
        target = self.cost_model.best_code(
            self.delta(stripe),
            codes=tuple(c.value for c in self.codes),
            current=current.value,
            margins=self.margins,
        )
        if target == current.value:
            return []
        return [self._convert(stripe, CodeKind(target), trigger)]

    def on_write(self, stripe: Hashable) -> list[Conversion]:
        """Application write: Queue1 insert; may convert the stripe to RS
        (two-code mode) or to whichever family now scores cheapest."""
        self._events += 1
        out = [] if self.idle_window is None else self._expire_idle()
        self._writes[stripe] += 1
        self.queue1.record(stripe)
        current = self._flags.get(stripe, self.default)  # code_of(stripe)
        if self.codes is not None:
            out.extend(self._retarget(stripe, "write-insert"))
        elif current is not CodeKind.RS and self.cost_model.prefers_rs(
            self.delta(stripe), self.margin
        ):
            out.append(self._convert(stripe, CodeKind.RS, "write-insert"))
        return out

    def on_read(self, stripe: Hashable) -> list[Conversion]:
        """Application read: tracked for locality; only idle expiry converts."""
        self._events += 1
        out = [] if self.idle_window is None else self._expire_idle()
        self.queue1.record(stripe)
        return out

    def on_recovery(self, stripe: Hashable) -> list[Conversion]:
        """Recovery request: Queue2 insert; may convert to MSR (two-code
        mode) or to the cheapest family, and Queue2 tail evictions convert
        cooled non-default stripes back to the default."""
        self._events += 1
        out = [] if self.idle_window is None else self._expire_idle()
        self._recoveries[stripe] += 1
        evicted = self.queue2.record(stripe, clock=self._events)
        if evicted:
            out.extend(self._cool(evicted, "queue2-evict"))
        current = self._flags.get(stripe, self.default)  # code_of(stripe)
        if self.codes is not None:
            out.extend(self._retarget(stripe, "recovery-insert"))
        elif current is not CodeKind.MSR and self.cost_model.prefers_msr(
            self._writes[stripe] / self._recoveries[stripe], self.margin  # δ, recovered
        ):
            out.append(self._convert(stripe, CodeKind.MSR, "recovery-insert"))
        return out

    def _convert(self, stripe: Hashable, target: CodeKind, trigger: str) -> Conversion:
        self._flags[stripe] = target
        conv = Conversion(stripe=stripe, target=target, trigger=trigger)
        self.conversions.append(conv)
        if METRICS.enabled:
            METRICS.counter(f"fusion.conversions.to_{target.value}", unit="stripes").inc()
            METRICS.counter(f"fusion.trigger.{trigger}", unit="conversions").inc()
        if TRACER.enabled:
            delta = self.delta(stripe)
            TRACER.emit(
                "adapt",
                ts=float(self._events),  # selector event index, not seconds
                stripe=stripe,
                target=target.value,
                trigger=trigger,
                delta=delta if delta != float("inf") else None,
            )
        return conv

    def forget(self, stripe: Hashable) -> None:
        """Drop every trace of a deleted stripe: queues, flag, counters.

        Not an eviction — trigger 3 must never fire for a stripe that no
        longer exists — so no conversion is returned or recorded.
        """
        self.queue1.remove(stripe)
        self.queue2.remove(stripe)
        self._flags.pop(stripe, None)
        self._writes.pop(stripe, None)
        self._recoveries.pop(stripe, None)

    # -- reporting ----------------------------------------------------------
    @property
    def msr_fraction(self) -> float:
        """Fraction of tracked stripes currently held in MSR."""
        return self.code_fractions().get("msr", 0.0)

    def code_fractions(self) -> dict[str, float]:
        """Fraction of tracked stripes per code family (multi-code view)."""
        kinds = self.codes or (CodeKind.RS, CodeKind.MSR)
        held = Counter(self._flags.values())
        total = len(self._flags) or 1
        return {kind.value: held[kind] / total for kind in kinds}

    def stats(self) -> dict[str, float]:
        """Counters for experiment reports."""
        by_trigger: Counter[str] = Counter()
        by_target: Counter[CodeKind] = Counter()
        for c in self.conversions:
            by_trigger[c.trigger] += 1
            by_target[c.target] += 1
        fractions = self.code_fractions()
        out = {
            "eta": self.eta,
            "conversions": len(self.conversions),
            "to_msr": by_target[CodeKind.MSR],
            "to_rs": by_target[CodeKind.RS],
            "msr_fraction": fractions.get("msr", 0.0),
            **{f"trigger:{k}": v for k, v in by_trigger.items()},
        }
        if self.codes is not None:
            out.update((f"to_{kind.value}", by_target[kind]) for kind in self.codes)
            out.update((f"fraction:{name}", frac) for name, frac in fractions.items())
        return out
