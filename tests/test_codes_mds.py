"""The MDS property of the MSR and Hitchhiker constructions, checked
exhaustively, and the bytes of the MSR construction, pinned.

Neither code checks itself when it is built: the coupled-layer MSR code
fixes its coupling coefficient at ``GAMMA = 2`` and Hitchhiker's piggybacks
keep MDS by design.  These tests are the referee for both claims at every
shape the repository builds or tests.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.codes import HitchhikerCode, MSRCode
from repro.gf import is_invertible

#: every MSR shape the repository builds (``MSRCode(2r, r)`` in the fusion
#: transformer, the (k + 3, k) baselines) or tests.  (12, 6) is MDS too, but
#: its 924 erasure patterns at 216 × 216 take ≈ 9 s, so it is left out.
MSR_SHAPES = [(4, 2), (6, 3), (6, 4), (8, 4), (8, 6), (9, 6), (10, 5), (12, 9)]
HITCHHIKER_SHAPES = [(4, 2), (6, 3), (8, 3)]


def erasure_patterns_not_decodable(code):
    """The r-node erasure patterns the code cannot decode.

    With the systematic generator ``[I; P]`` the parity check is
    ``H = [P | I]``; the ``r`` erased nodes' ``r·l`` symbols are determined
    by the survivors exactly when their columns of ``H`` are invertible.
    """
    l = code.subpacketization
    check = np.concatenate(
        [code.generator[code.k * l :], np.eye(code.r * l, dtype=np.uint8)], axis=1
    )
    return [
        erased
        for erased in itertools.combinations(range(code.n), code.r)
        if not is_invertible(check[:, [i * l + z for i in erased for z in range(l)]])
    ]


@pytest.mark.parametrize("nk", MSR_SHAPES, ids=lambda nk: f"msr{nk[0]}_{nk[1]}")
def test_msr_every_erasure_pattern_decodable(nk):
    assert erasure_patterns_not_decodable(MSRCode(*nk)) == []


@pytest.mark.parametrize("kr", HITCHHIKER_SHAPES, ids=lambda kr: f"hh{kr[0]}_{kr[1]}")
def test_hitchhiker_every_erasure_pattern_decodable(kr):
    assert erasure_patterns_not_decodable(HitchhikerCode(*kr)) == []


#: sha256 of ``generator.tobytes()`` and of the concatenated
#: ``_parity_factors(k)`` per shape, recorded at f68eb6d while every build
#: searched its coupling coefficient and verified MDS.  Do not re-record.
MSR_SHA256 = {
    (4, 2): ("f078bddb53f287ae745dd73f46243d34b16b07609615f177241628d1a01cc3dd",
             "f26a5d04081e1c2b5fc45901a4f2a66645a449361710c21e8fbf2ccb0d187b79"),
    (6, 3): ("edbfb9d81e1eb51d3140f943de29f2a9f79124695c5a3dd51b5e0efa15622a8c",
             "c55b425f5f41a373d39099f6334eef9c8b7179eb7e06f4c54d0cad82c36d6a46"),
    (6, 4): ("00761d2e8870f6023d2cf6e1e7b55e875a92180b8856e7fcee1ea959e7b3a6b5",
             "3c9c95606ef9179db2f13d4a1471448ba2a0664fc323127a6eb5873c3308ffce"),
    (8, 4): ("3c95062db006663cd132fca24cb1b041c4fd9288d4569f5c2e1d7f66e3d33cbe",
             "b52125b5b005fb377d978f01e1219c33b663942033b42831f7c6f2ca40ca333b"),
    (8, 6): ("9eec2e1b6c95fb66af0caf2bbad4712f9045415fa2106c3dea87da7f0287a833",
             "8716636cacb18930fb7fd94ab81a22905a220e0d04907b7c21f179fb5a3d99da"),
    (9, 6): ("3a0f6ffbefc2e68f12f5ca5784b611a5b96b42aabd6ad1ab09022d49a2743316",
             "3687ed1a35a07ca9e1964d700b220f3d50f2e05e69dafa5c9c58fe967b94925c"),
    (10, 5): ("c63f8afe71eab3160f0c9a066bfa4406fbec99914aa7c51869b63570e40ddf07",
              "dfb26cd9e8e3884cf6e1efe277adaefb417ea6066b9262324a1fa9f2371ce2a3"),
    (12, 9): ("1c8bb504fe4df5e8c12669a9346cbfaa02a4307d9e2fad3cf0507cb274e2d9b0",
              "30f739909b8aa246e4b0d5f15543150e5235f2fa028acba70de9229ca3422cbd"),
}  # fmt: skip

#: sha256 of ``HitchhikerCode(k, r).generator.tobytes()``, recorded at f68eb6d
HITCHHIKER_SHA256 = {
    (4, 2): "75aa76ddc5af36166aee3ab3a0922ebaa8677408ed25f2b6585c64788ecd516a",
    (6, 3): "a9d7c6d4433f8bc8409b317f9f9cfc271337e196dab61c774e1511dfb93ed8e7",
    (8, 3): "2cdd583dd3e510bfa0d12c97e99dd113c99e14624573733c33063b2340d4ae29",
}


@pytest.mark.parametrize("nk", MSR_SHAPES, ids=lambda nk: f"msr{nk[0]}_{nk[1]}")
def test_msr_construction_digests(nk):
    """The generator and the encoder's coupled-layer chain are unchanged."""
    msr = MSRCode(*nk)
    factors = b"".join(np.ascontiguousarray(f).tobytes() for f in msr._parity_factors(msr.k))
    got = (
        hashlib.sha256(msr.generator.tobytes()).hexdigest(),
        hashlib.sha256(factors).hexdigest(),
    )
    assert got == MSR_SHA256[nk]


@pytest.mark.parametrize("kr", HITCHHIKER_SHAPES, ids=lambda kr: f"hh{kr[0]}_{kr[1]}")
def test_hitchhiker_generator_digest(kr):
    generator = HitchhikerCode(*kr).generator
    assert hashlib.sha256(generator.tobytes()).hexdigest() == HITCHHIKER_SHA256[kr]
