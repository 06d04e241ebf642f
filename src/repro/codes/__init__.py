"""Erasure codes: RS, MSR (coupled-layer), LRC, FR and Hitchhiker.

All codes share the :class:`repro.codes.base.ErasureCode` interface —
``encode`` / ``decode`` / ``repair`` on ``(nodes, block_len)`` uint8
arrays — plus planning hooks the cluster simulator uses to price repairs
without moving real bytes.
"""

from .base import (
    CodeError,
    ErasureCode,
    LinearVectorCode,
    ParameterError,
    RepairResult,
    UnrecoverableError,
)
from .fr import FractionalRepetitionCode
from .hitchhiker import HitchhikerCode
from .lrc import LocalReconstructionCode
from .msr import MSRCode
from .rs import ReedSolomonCode

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
