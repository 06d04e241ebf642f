"""Erasure codes: RS, MSR (coupled-layer), LRC, FR and Hitchhiker.

All codes share the :class:`repro.codes.base.ErasureCode` interface —
``encode`` / ``decode`` / ``repair`` on ``(nodes, block_len)`` uint8
arrays — plus planning hooks the cluster simulator uses to price repairs
without moving real bytes.
"""

from .._lazy import lazy_exports

__all__ = [
    "CodeError",
    "ParameterError",
    "UnrecoverableError",
    "RepairResult",
    "ErasureCode",
    "LinearVectorCode",
    "ReedSolomonCode",
    "MSRCode",
    "LocalReconstructionCode",
    "FractionalRepetitionCode",
    "HitchhikerCode",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("CodeError", "ErasureCode", "LinearVectorCode", "ParameterError", "RepairResult",
              "UnrecoverableError"),
    ".fr": ("FractionalRepetitionCode",),
    ".hitchhiker": ("HitchhikerCode",),
    ".lrc": ("LocalReconstructionCode",),
    ".msr": ("MSRCode",),
    ".rs": ("ReedSolomonCode",),
})  # fmt: skip
