"""Epoch-based fast-forward Monte-Carlo durability engine.

The DES in :mod:`repro.cluster` prices every chunk transfer; pricing a
*decade* of failures over a million stripes that way is hopeless.  This
engine exploits what the analytic model in
:mod:`repro.metrics.reliability` already assumes — stripes fail and
repair independently — and simulates each stripe as its own tiny
renewal process, jumping straight from event to event:

* **healthy epochs** fast-forward in one exponential draw over the
  stripe's total hazard (per-chunk disk failures plus any correlated
  rack/DC burst the topology defines);
* **degraded excursions** walk the handful of failure/repair events
  near the tolerance boundary, with repair times sampled from the
  scheme's own cost model — the same
  :meth:`~repro.metrics.reliability.ReliabilityModel.repair_hours`
  quantities the Markov chain uses — stretched by the topology's
  oversubscription when helpers sit across rack/DC boundaries;
* **data loss** (erasures exceed the code's tolerance) is recorded and
  the stripe resets — the classic renewal estimator, so
  ``MTTDL ≈ total observed time / losses``.

Correlated bursts are applied *stripe-marginally*: a rack failure kills
every chunk the stripe keeps in that rack at once, but stripes do not
share burst events with each other.  That keeps stripes independent —
the property that makes sharding byte-identical under any ``--jobs``
split — at the cost of slightly underestimating cross-stripe loss
correlation (documented in ``docs/durability.md``).

On the ``flat`` topology with exponential repair the engine's
assumptions coincide *exactly* with the analytic birth–death chain,
which is what the cross-validation suite in ``tests/test_durability.py``
pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..cluster.namenode import NameNode
from ..codes.families import BaselineMSRFamily, GroupedMSRFamily, RSFamily
from ..experiments.parallel import map_tasks
from ..fusion.costmodel import SystemProfile
from ..metrics.reliability import HOURS_PER_YEAR, ReliabilityModel
from .stats import bootstrap_rate_interval, rule_of_three_mttdl, wilson_interval
from .topology import TOPOLOGIES, TopologySpec, resolve_topology

__all__ = [
    "MC_SCHEMES",
    "DurabilityConfig",
    "run_durability",
    "simulate_population",
    "format_durability_table",
]

#: schemes the Monte-Carlo engine sweeps (CLI ``--scheme`` choices)
MC_SCHEMES = ("rs", "msr", "ecfusion")

#: per-scheme RNG stream salt, so scheme sweeps never share draws
_SCHEME_SALT = {"custom": 0, "rs": 1, "msr": 2, "ecfusion": 3}


@dataclass(frozen=True)
class DurabilityConfig:
    """One durability campaign: population size, horizon, code and world.

    ``shards`` splits the stripe population into independently seeded
    slices — the unit of process parallelism *and* of the bootstrap
    resampling, so the count changes neither the point estimates' RNG
    streams under different ``--jobs`` values nor the report bytes for
    a fixed configuration.
    """

    stripes: int = 100_000
    years: float = 10.0
    k: int = 8
    r: int = 3
    #: EC-Fusion's MSR-resident stripe fraction (paper default 1/6)
    h: float = 1 / 6
    seed: int = 7
    topology: TopologySpec = field(default_factory=lambda: TOPOLOGIES["flat"])
    disk_mttf_hours: float = 1.4e6
    #: ``exponential`` matches the Markov chain's memoryless repair;
    #: ``fixed`` uses the cost model's deterministic duration instead
    repair_distribution: str = "exponential"
    shards: int = 64
    profile: SystemProfile = field(default_factory=SystemProfile)

    def __post_init__(self):
        if self.stripes < 1 or self.shards < 1:
            raise ValueError("stripes and shards must be >= 1")
        if self.years <= 0:
            raise ValueError("years must be positive")
        if self.k < 1 or self.r < 1:
            raise ValueError("k and r must be >= 1")
        if not 0.0 <= self.h <= 1.0:
            raise ValueError("h must be in [0, 1]")
        if self.disk_mttf_hours <= 0:
            raise ValueError("disk_mttf_hours must be positive")
        if self.repair_distribution not in ("exponential", "fixed"):
            raise ValueError("repair_distribution must be 'exponential' or 'fixed'")

    @property
    def horizon_hours(self) -> float:
        return self.years * HOURS_PER_YEAR


# ---------------------------------------------------------------- unit specs
@dataclass(frozen=True)
class _UnitSpec:
    """One independent failure domain of a stripe, ready to simulate.

    ``events`` are the correlated bursts that touch this unit: each
    entry is ``(rate_per_hour, local_slots_killed)``.  ``repair_means``
    holds the mean repair hours per local slot, topology stretch already
    applied.
    """

    n: int
    tolerance: int
    chunk_rate: float
    events: tuple[tuple[float, tuple[int, ...]], ...]
    repair_means: tuple[float, ...]

    @property
    def event_rate(self) -> float:
        return sum(rate for rate, _ in self.events)


def _repair_multiplier(
    unit_racks: list[int],
    unit_dcs: list[int],
    slot: int,
    helpers: int,
    topo: TopologySpec,
) -> float:
    """How much the topology stretches a repair of ``slot``.

    Each helper byte crosses the cheapest boundaries available: free in
    rack, ToR-oversubscribed across racks, doubly oversubscribed across
    DCs.  Helpers are chosen nearest-first (the SMRSU locality rule), so
    the multiplier is the mean path cost of the ``helpers`` cheapest
    survivors — 1.0 on a flat/non-blocking fabric.
    """
    costs = []
    for s in range(len(unit_racks)):
        if s == slot:
            continue
        if unit_racks[s] == unit_racks[slot]:
            costs.append(1.0)
        elif unit_dcs[s] == unit_dcs[slot]:
            costs.append(topo.rack_oversubscription)
        else:
            costs.append(topo.rack_oversubscription * topo.dc_oversubscription)
    costs.sort()
    chosen = costs[: max(1, min(helpers, len(costs)))]
    return sum(chosen) / len(chosen)


def _patterns(
    topo: TopologySpec,
    width: int,
    unit_ranges: list[tuple[int, int]],
    tolerance: int,
    helpers: int,
    base_repair_hours: float,
    chunk_rate: float,
) -> tuple[tuple[_UnitSpec, ...], ...]:
    """Prepared unit specs per placement pattern.

    Round-robin placement repeats its rack/DC shape every ``racks``
    stripe indices, so pattern ``i % racks`` fully determines stripe
    ``i``'s failure-domain grouping.
    """
    namenode = NameNode(
        topo.num_nodes(width), width, racks=topo.racks, dcs=topo.dcs
    )
    out = []
    for pattern in range(max(1, topo.racks)):
        placement = namenode.placement_for(pattern)
        racks = [namenode.rack_of(node) for node in placement]
        dcs = [namenode.dc_of(node) for node in placement]
        units = []
        for lo, hi in unit_ranges:
            unit_racks = racks[lo:hi]
            unit_dcs = dcs[lo:hi]
            n = hi - lo
            events: list[tuple[float, tuple[int, ...]]] = []
            if topo.rack_mttf_hours is not None:
                for rack in sorted(set(unit_racks)):
                    slots = tuple(s for s in range(n) if unit_racks[s] == rack)
                    events.append((1.0 / topo.rack_mttf_hours, slots))
            if topo.dc_mttf_hours is not None:
                for dc in sorted(set(unit_dcs)):
                    slots = tuple(s for s in range(n) if unit_dcs[s] == dc)
                    events.append((1.0 / topo.dc_mttf_hours, slots))
            means = tuple(
                base_repair_hours
                * _repair_multiplier(unit_racks, unit_dcs, slot, helpers, topo)
                for slot in range(n)
            )
            units.append(
                _UnitSpec(
                    n=n,
                    tolerance=tolerance,
                    chunk_rate=chunk_rate,
                    events=tuple(events),
                    repair_means=means,
                )
            )
        out.append(tuple(units))
    return tuple(out)


def _prepare_scheme(config: DurabilityConfig, scheme: str):
    """(rs-path patterns, msr-path patterns or None) for one scheme."""
    topo = resolve_topology(config.topology)
    model = ReliabilityModel(
        config.k,
        config.r,
        profile=config.profile,
        disk_mttf_hours=config.disk_mttf_hours,
    )
    chunk_rate = 1.0 / config.disk_mttf_hours
    k, r = config.k, config.r
    width = k + r
    # helper counts are the family descriptors', not literals
    rs_reads = len(RSFamily(k, r).repair_reads(0))
    if scheme == "rs":
        a = _patterns(
            topo, width, [(0, width)], r, rs_reads, model.repair_hours("rs"), chunk_rate
        )
        return a, None
    if scheme == "msr":
        a = _patterns(
            topo,
            width,
            [(0, width)],
            r,
            BaselineMSRFamily(k, r).stored_helpers,
            model.repair_hours("msr"),
            chunk_rate,
        )
        return a, None
    if scheme == "ecfusion":
        # mixture: (1-h) of stripes are RS(k, r); h are split into
        # q = ⌈k/r⌉ independent MSR(2r, r) groups with fast repair —
        # the exact population the analytic mixture MTTDL integrates
        rs_patterns = _patterns(
            topo, width, [(0, width)], r, rs_reads, model.repair_hours("rs"), chunk_rate
        )
        msr = GroupedMSRFamily(k, r)
        q, group = msr.copies, msr.n_eff
        msr_patterns = _patterns(
            topo,
            q * group,
            [(g * group, (g + 1) * group) for g in range(q)],
            r,
            group - 1,
            model.repair_hours("ecfusion", 1.0),
            chunk_rate,
        )
        return rs_patterns, msr_patterns
    raise ValueError(f"unknown scheme {scheme!r}; choose from {MC_SCHEMES}")


# ------------------------------------------------------------------- shards
@dataclass(frozen=True)
class _ShardTask:
    """One seeded slice of the stripe population (pure data, picklable)."""

    seed: int
    salt: int
    start: int
    count: int
    horizon_hours: float
    fixed_repair: bool
    msr_fraction: float
    variant_a: tuple[tuple[_UnitSpec, ...], ...]
    variant_b: tuple[tuple[_UnitSpec, ...], ...] | None = None


def _simulate_unit(rng, unit: _UnitSpec, horizon: float, fixed_repair: bool) -> int:
    """Renewal-simulate one unit over ``horizon`` hours; count losses."""
    t = 0.0
    failed: set[int] = set()
    repair_slot = -1
    repair_done = math.inf
    losses = 0
    n = unit.n
    chunk_rate = unit.chunk_rate
    event_rate = unit.event_rate
    events = unit.events
    while True:
        healthy = n - len(failed)
        hazard = healthy * chunk_rate + event_rate
        t_fail = t + rng.exponential() / hazard if hazard > 0 else math.inf
        nxt = t_fail if t_fail < repair_done else repair_done
        if nxt >= horizon:
            break
        t = nxt
        if repair_done <= t_fail:  # a repair lands first
            failed.discard(repair_slot)
            repair_slot = -1
            repair_done = math.inf
        else:  # a failure arrives first: one chunk or a whole burst
            u = rng.random() * hazard
            if u < healthy * chunk_rate:
                idx = min(int(u / chunk_rate), healthy - 1)
                for s in range(n):
                    if s not in failed:
                        if idx == 0:
                            failed.add(s)
                            break
                        idx -= 1
            else:
                u -= healthy * chunk_rate
                for rate, slots in events:
                    if u < rate:
                        failed.update(slots)
                        break
                    u -= rate
                else:  # float roundoff on the last event
                    failed.update(events[-1][1])
            if len(failed) > unit.tolerance:
                losses += 1
                failed.clear()
                repair_slot = -1
                repair_done = math.inf
                continue
        if repair_slot < 0 and failed:
            # one repair in flight at a time — the conservative classic
            # model, and exactly the Markov chain's μ when exponential
            repair_slot = min(failed)
            mean = unit.repair_means[repair_slot]
            repair_done = t + (mean if fixed_repair else rng.exponential() * mean)
    return losses


def _run_shard(task: _ShardTask) -> dict:
    """Simulate one shard's stripes; module-level so pools can pickle it."""
    rng = np.random.default_rng([task.seed, task.salt, task.start])
    patterns_a = task.variant_a
    patterns_b = task.variant_b
    losses = 0
    stripes_lost = 0
    for index in range(task.start, task.start + task.count):
        if patterns_b is not None:
            mixed = rng.random() < task.msr_fraction
            units = (patterns_b if mixed else patterns_a)[index % len(patterns_a)]
        else:
            units = patterns_a[index % len(patterns_a)]
        stripe_losses = 0
        for unit in units:
            stripe_losses += _simulate_unit(
                rng, unit, task.horizon_hours, task.fixed_repair
            )
        losses += stripe_losses
        if stripe_losses:
            stripes_lost += 1
    return {
        "start": task.start,
        "losses": losses,
        "stripes_lost": stripes_lost,
        "stripes": task.count,
        "exposure_hours": task.count * task.horizon_hours,
    }


def _shard_tasks(config: DurabilityConfig, scheme: str) -> list[_ShardTask]:
    variant_a, variant_b = _prepare_scheme(config, scheme)
    shard_count = min(config.shards, config.stripes)
    size = -(-config.stripes // shard_count)
    tasks = []
    start = 0
    while start < config.stripes:
        count = min(size, config.stripes - start)
        tasks.append(
            _ShardTask(
                seed=config.seed,
                salt=_SCHEME_SALT[scheme],
                start=start,
                count=count,
                horizon_hours=config.horizon_hours,
                fixed_repair=config.repair_distribution == "fixed",
                msr_fraction=config.h,
                variant_a=variant_a,
                variant_b=variant_b,
            )
        )
        start += count
    return tasks


# ---------------------------------------------------------------- estimates
def _summarise(
    shard_results: list[dict], seed: int, salt: int
) -> dict:
    """Fold shard counts into point estimates + confidence intervals."""
    losses = [r["losses"] for r in shard_results]
    exposures = [r["exposure_hours"] for r in shard_results]
    total_losses = sum(losses)
    total_lost = sum(r["stripes_lost"] for r in shard_results)
    total_stripes = sum(r["stripes"] for r in shard_results)
    exposure = sum(exposures)
    pdl = total_lost / total_stripes if total_stripes else 0.0
    pdl_lo, pdl_hi = wilson_interval(total_lost, total_stripes)
    if total_losses:
        mttdl = exposure / total_losses
        rate_lo, rate_hi = bootstrap_rate_interval(
            losses, exposures, seed=seed * 31 + salt
        )
        # rate bounds invert into MTTDL bounds; a bootstrap that never
        # resamples a loss-free world keeps both finite
        mttdl_lo = exposure / total_losses if rate_hi == 0 else 1.0 / rate_hi
        mttdl_hi = None if rate_lo == 0 else 1.0 / rate_lo
    else:
        mttdl = None
        mttdl_lo = rule_of_three_mttdl(exposure)
        mttdl_hi = None
    return {
        "stripes": total_stripes,
        "losses": total_losses,
        "stripes_lost": total_lost,
        "exposure_hours": exposure,
        "mttdl_hours": mttdl,
        "mttdl_ci_hours": [mttdl_lo, mttdl_hi],
        "pdl": pdl,
        "pdl_ci": [pdl_lo, pdl_hi],
    }


def simulate_population(
    n: int,
    tolerance: int,
    failure_rate: float,
    repair_hours: float,
    stripes: int,
    years: float,
    seed: int = 7,
    shards: int = 32,
    jobs: int = 1,
    repair_distribution: str = "exponential",
) -> dict:
    """Monte-Carlo a homogeneous (n, tolerance) population directly.

    The raw estimator with no topology and no cost model — the exact
    counterpart of :func:`repro.metrics.reliability.mttdl_markov`, which
    is what the cross-validation tests drive.  Returns the same summary
    dict as one scheme entry of :func:`run_durability`.
    """
    if stripes < 1 or shards < 1:
        raise ValueError("stripes and shards must be >= 1")
    if years <= 0 or failure_rate <= 0 or repair_hours <= 0:
        raise ValueError("years, failure_rate and repair_hours must be positive")
    unit = _UnitSpec(
        n=n,
        tolerance=tolerance,
        chunk_rate=failure_rate,
        events=(),
        repair_means=(repair_hours,) * n,
    )
    shard_count = min(shards, stripes)
    size = -(-stripes // shard_count)
    tasks = []
    start = 0
    while start < stripes:
        count = min(size, stripes - start)
        tasks.append(
            _ShardTask(
                seed=seed,
                salt=_SCHEME_SALT["custom"],
                start=start,
                count=count,
                horizon_hours=years * HOURS_PER_YEAR,
                fixed_repair=repair_distribution == "fixed",
                msr_fraction=0.0,
                variant_a=((unit,),),
            )
        )
        start += count
    results = map_tasks(_run_shard, tasks, jobs=jobs)
    return _summarise(results, seed=seed, salt=_SCHEME_SALT["custom"])


def run_durability(
    config: DurabilityConfig,
    schemes: tuple[str, ...] = MC_SCHEMES,
    jobs: int = 1,
) -> dict:
    """Run one durability campaign; returns the report's ``durability`` section.

    Shards of *all* requested schemes fan out through one
    :func:`~repro.experiments.parallel.map_tasks` call (order-preserving,
    process-parallel), so ``jobs=N`` produces byte-identical output to
    serial execution.
    """
    for scheme in schemes:
        if scheme not in MC_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {MC_SCHEMES}")
    topo = resolve_topology(config.topology)
    model = ReliabilityModel(
        config.k,
        config.r,
        profile=config.profile,
        disk_mttf_hours=config.disk_mttf_hours,
    )
    per_scheme_tasks = {scheme: _shard_tasks(config, scheme) for scheme in schemes}
    flat_tasks = [task for scheme in schemes for task in per_scheme_tasks[scheme]]
    flat_results = map_tasks(_run_shard, flat_tasks, jobs=jobs)
    sections = []
    cursor = 0
    for scheme in schemes:
        count = len(per_scheme_tasks[scheme])
        shard_results = flat_results[cursor : cursor + count]
        cursor += count
        summary = _summarise(
            shard_results, seed=config.seed, salt=_SCHEME_SALT[scheme]
        )
        analytic = model.mttdl(scheme, config.h)
        summary["scheme"] = scheme
        summary["analytic_mttdl_hours"] = analytic.mttdl_hours
        summary["repair_hours"] = analytic.repair_hours
        sections.append(summary)
    return {
        "stripes": config.stripes,
        "years": config.years,
        "k": config.k,
        "r": config.r,
        "h": config.h,
        "seed": config.seed,
        "shards": min(config.shards, config.stripes),
        "repair_distribution": config.repair_distribution,
        "disk_mttf_hours": config.disk_mttf_hours,
        "topology": topo.as_dict(),
        "schemes": sections,
    }


def format_durability_table(section: dict) -> str:
    """Human-readable summary of one ``durability`` report section."""
    from ..experiments.runner import format_table

    def years(hours):
        return "∞" if hours is None else f"{hours / HOURS_PER_YEAR:.3g}"

    rows = []
    for entry in section["schemes"]:
        lo, hi = entry["mttdl_ci_hours"]
        plo, phi = entry["pdl_ci"]
        rows.append(
            [
                entry["scheme"],
                str(entry["losses"]),
                years(entry["mttdl_hours"]),
                f"[{years(lo)}, {years(hi)}]",
                f"{entry['pdl']:.2e}",
                f"[{plo:.2e}, {phi:.2e}]",
                years(entry["analytic_mttdl_hours"]),
            ]
        )
    topo = section["topology"]
    return format_table(
        [
            "scheme",
            "losses",
            "MTTDL yr",
            "95% CI yr",
            "PDL",
            "Wilson 95%",
            "analytic yr",
        ],
        rows,
        title=(
            f"Durability — {section['stripes']} stripes × {section['years']:g} y, "
            f"k={section['k']} r={section['r']} h={section['h']:.3g}, "
            f"topology {topo['name']} ({topo['racks']}×racks/{topo['dcs']}×DC), "
            f"{section['repair_distribution']} repair, seed {section['seed']}"
        ),
    )
