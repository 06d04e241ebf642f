"""EC-Fusion reproduction: hybrid RS/MSR erasure coding for cloud storage.

Reproduces Qiu et al., *EC-Fusion* (IPDPS 2020): erasure codes over
GF(2⁸) (:mod:`repro.codes`), the adaptive fusion framework
(:mod:`repro.fusion`), baseline schemes (:mod:`repro.hybrid`), an
HDFS-like cluster simulator (:mod:`repro.cluster`), workload generators
(:mod:`repro.workloads`), metrics (:mod:`repro.metrics`), opt-in
observability (:mod:`repro.telemetry`) and the paper's full evaluation
(:mod:`repro.experiments`).

The most common entry points are re-exported here.
"""

from .codes import (
    HitchhikerCode,
    LocalReconstructionCode,
    MSRCode,
    ReedSolomonCode,
    RepairResult,
    UnrecoverableError,
)
from .fusion import (
    AdaptiveSelector,
    CodeKind,
    CostModel,
    ECFusion,
    FusionTransformer,
    SystemProfile,
)

__version__ = "1.0.0"

__all__ = [
    "ReedSolomonCode",
    "MSRCode",
    "LocalReconstructionCode",
    "HitchhikerCode",
    "RepairResult",
    "UnrecoverableError",
    "ECFusion",
    "FusionTransformer",
    "AdaptiveSelector",
    "CodeKind",
    "CostModel",
    "SystemProfile",
    "__version__",
]
