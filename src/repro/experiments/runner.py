"""Shared experiment configuration, scheme factory and table formatting.

Every figure/table module builds on this: one :class:`ExperimentConfig`
pins the workload scale, platform profile and adaptive-policy knobs, and
:func:`build_schemes` instantiates the paper's five contenders
consistently from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chaos import ChaosConfig
from ..cluster import ClusterConfig
from ..fusion.costmodel import CostModel, SystemProfile
from ..hybrid import SchemePlanner, make_planner

__all__ = ["ExperimentConfig", "build_schemes", "format_table", "SCHEME_ORDER"]

#: Scheme ordering used in every figure (matches the paper's legends).
SCHEME_ORDER = ("RS", "MSR", "LRC", "HACFS", "EC-Fusion")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one experimental campaign.

    Defaults are sized so the full Figs. 16–19 + Table VII suite replays in
    well under a minute; raise ``num_requests`` for tighter confidence.

    Attributes
    ----------
    k, r:
        Stripe shape; the paper evaluates k ∈ {6, 8} with r = 3.
    gamma:
        Chunk size (27 MB, the paper's HDFS chunk).
    num_requests:
        Application requests replayed per (scheme, trace) run.
    num_stripes:
        Working-set size (stripes).
    failure_rate:
        Failures per application request for the recovery workload.
    num_nodes:
        Cluster size.
    fusion_queue_capacity:
        EC-Fusion's Queue2 capacity — bounds how many stripes sit in MSR
        simultaneously, hence the storage overhead (paper Fig. 13 keeps the
        MSR share around 15–20 %).
    fusion_margin_fraction:
        Hysteresis Δ as a fraction of η (eq. (2)).
    hacfs_hot_fraction:
        HACFS hot-queue capacity as a fraction of the working set.
    seed:
        Base seed for traces/failures.
    chaos_profile:
        Named chaos profile (``--chaos-profile``); ``None`` (default)
        disables fault injection entirely — runs are bit-identical to a
        build without the chaos subsystem.
    chaos_seed:
        Seed for the chaos fault schedule (``--chaos-seed``); independent
        of the workload ``seed`` so storms can vary over a fixed workload.
    verify_invariants:
        Sweep durability/metadata/conversion invariants during chaos runs
        (``--verify-invariants``).
    pipeline_chunk:
        Chunk size in bytes for pipelined (ECPipe-style) repair
        (``--pipeline-chunk``, in MiB on the CLI); ``None`` keeps the
        conventional pull-everything reconstruction.
    repair_scheduler:
        Route repairs through the risk-ordered
        :class:`~repro.cluster.RecoveryScheduler` even without pipelining
        (``--repair-scheduler``); implied by ``pipeline_chunk``.
    """

    k: int = 8
    r: int = 3
    gamma: float = 27 * 1024 * 1024
    num_requests: int = 600
    num_stripes: int = 80
    failure_rate: float = 0.12
    num_nodes: int = 20
    fusion_queue_capacity: int | None = None
    fusion_margin_fraction: float = 0.0
    hacfs_hot_fraction: float = 0.3
    spatial_decay: float = 200.0
    seed: int = 7
    chaos_profile: str | None = None
    chaos_seed: int = 0
    verify_invariants: bool = False
    pipeline_chunk: float | None = None
    repair_scheduler: bool = False

    @property
    def profile(self) -> SystemProfile:
        return SystemProfile(gamma=self.gamma)

    @property
    def cluster(self) -> ClusterConfig:
        return ClusterConfig(
            num_nodes=self.num_nodes,
            profile=self.profile,
            pipeline_chunk=self.pipeline_chunk,
            repair_scheduler=self.repair_scheduler,
        )

    @property
    def chaos(self) -> ChaosConfig | None:
        """The chaos campaign to overlay on simulations (None = no chaos)."""
        if self.chaos_profile is None:
            return None
        return ChaosConfig(
            profile=self.chaos_profile,
            seed=self.chaos_seed,
            verify_invariants=self.verify_invariants,
        )

    @property
    def queue_capacity(self) -> int:
        """Queue2 sized to cover the recovery hot set — undersizing it
        causes evict→reconvert churn that wastes transformation work."""
        if self.fusion_queue_capacity is not None:
            return self.fusion_queue_capacity
        return self.num_stripes


def build_schemes(config: ExperimentConfig) -> dict[str, SchemePlanner]:
    """Fresh planner instances for the five contenders (adaptive state reset)."""
    eta = CostModel(config.k, config.r, config.profile).eta
    margin = config.fusion_margin_fraction * eta if eta not in (0, float("inf")) else 0.0
    knobs = {
        "HACFS": dict(
            hot_capacity=max(2, int(config.num_stripes * config.hacfs_hot_fraction))
        ),
        "EC-Fusion": dict(queue_capacity=config.queue_capacity, margin=margin),
    }
    return {
        name: make_planner(
            name, config.k, config.r, config.gamma, config.profile, **knobs.get(name, {})
        )
        for name in SCHEME_ORDER
    }


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width ASCII table for benchmark output."""
    str_rows = [[f"{c:.4g}" if isinstance(c, float) else str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
