"""GF(2^8) arithmetic: the substrate of every erasure code in this repo.

GF(2^8) is the field, not a parameter: every code symbol is one byte.

Public surface:

* :class:`repro.gf.GF` — the field object with vectorized element
  arithmetic; :func:`as_symbols` turns caller arrays into byte symbols,
  refusing wider dtypes;
* :mod:`repro.gf.matrix` — linear algebra over GF(2^8) plus the
  block-encode kernel :func:`repro.gf.matrix.apply_to_blocks`;
* :mod:`repro.gf.plan` — :class:`repro.gf.plan.CodingPlan`, the fused
  precompiled form of ``apply_to_blocks`` (plus the kept naive reference
  kernel :func:`repro.gf.plan.apply_to_blocks_naive`);
* :mod:`repro.gf.backends` — the kernel backend registry CodingPlan
  executes through (``translate``/``pair``/``native``, selectable via
  ``REPRO_GF_BACKEND``); :func:`native_info` names the SIMD rung behind
  ``native`` on this host, or why there is none.
"""

from .._lazy import lazy_exports

__all__ = [
    "GF",
    "GFTables",
    "PRIMITIVE_POLY",
    "get_tables",
    "as_symbols",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "matmul",
    "mat_vec",
    "identity",
    "inverse",
    "rank",
    "solve",
    "is_invertible",
    "vandermonde",
    "cauchy",
    "systematic_rs_parity",
    "apply_to_blocks",
    "apply_to_blocks_naive",
    "CodingPlan",
    "BACKEND_NAMES",
    "available_backends",
    "native_info",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".arithmetic": ("GF", "as_symbols", "gf_add", "gf_div", "gf_inv", "gf_mul", "gf_pow"),
    ".backends": ("BACKEND_NAMES", "available_backends"),
    ".matrix": ("CodingPlan", "apply_to_blocks", "apply_to_blocks_naive", "cauchy", "identity",
                "inverse", "is_invertible", "mat_vec", "matmul", "rank", "solve",
                "systematic_rs_parity", "vandermonde"),
    ".native": ("native_info",),
    ".tables": ("PRIMITIVE_POLY", "GFTables", "get_tables"),
})  # fmt: skip
