"""EC-Fusion core: cost model, adaptive selection, code transformation.

The paper's three modules map one-to-one onto submodules here:

* *Code Selection*    → :mod:`repro.fusion.costmodel`
* *Workload Adaptation* → :mod:`repro.fusion.queues` + :mod:`repro.fusion.adaptation`
* *Code Transformation* → :mod:`repro.fusion.transform`

:class:`repro.fusion.ECFusion` ties them together over real data.
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".adaptation": ("AdaptiveSelector", "CodeKind", "Conversion"),
    ".costmodel": ("ALWAYS_MSR", "ALWAYS_RS", "CODE_FAMILIES", "CodeCosts", "CostModel",
                   "SystemProfile"),
    ".framework": ("ECFusion", "RecoveryReport"),
    ".queues": ("CachePolicy", "QueueEntry", "TrackingQueue"),
    ".transform": ("ChunkUnavailable", "FusionTransformer", "MsrToRsResult", "RsToMsrResult",
                   "StripeStore", "TransformAborted", "TransformCost"),
})  # fmt: skip
