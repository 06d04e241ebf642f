"""EC-Fusion core: cost model, adaptive selection, code transformation.

The paper's three modules map one-to-one onto submodules here:

* *Code Selection*    → :mod:`repro.fusion.costmodel`
* *Workload Adaptation* → :mod:`repro.fusion.queues` + :mod:`repro.fusion.adaptation`
* *Code Transformation* → :mod:`repro.fusion.transform`

:class:`repro.fusion.ECFusion` ties them together over real data.
"""

from .adaptation import AdaptiveSelector, CodeKind, Conversion
from .costmodel import ALWAYS_MSR, ALWAYS_RS, CostModel, SystemProfile
from .framework import ECFusion, RecoveryReport
from .queues import CachePolicy, QueueEntry, TrackingQueue
from .costmodel import CODE_FAMILIES, CodeCosts
from .transform import (
    ChunkUnavailable,
    FusionTransformer,
    MsrToRsResult,
    RsToMsrResult,
    StripeStore,
    TransformAborted,
    TransformCost,
)

__all__ = [
    "ChunkUnavailable",
    "TransformAborted",
    "SystemProfile",
    "CostModel",
    "CodeCosts",
    "CODE_FAMILIES",
    "ALWAYS_RS",
    "ALWAYS_MSR",
    "CachePolicy",
    "QueueEntry",
    "TrackingQueue",
    "CodeKind",
    "Conversion",
    "AdaptiveSelector",
    "FusionTransformer",
    "TransformCost",
    "RsToMsrResult",
    "MsrToRsResult",
    "ECFusion",
    "RecoveryReport",
    "StripeStore",
]
