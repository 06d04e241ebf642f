"""Run the executable examples embedded in module docstrings.

Doc examples are part of the public API contract — if they rot, users'
first contact with the library breaks.  This module collects doctests
from every package module that carries them.
"""

import doctest
import pathlib
import re

import pytest

import repro.cluster.events
import repro.cluster.pipeline
import repro.codes.families
import repro.codes.fr
import repro.codes.hitchhiker
import repro.codes.lrc
import repro.codes.msr
import repro.codes.rs
import repro.fusion.adaptation
import repro.fusion.costmodel
import repro.fusion.framework
import repro.fusion.queues
import repro.fusion.transform
import repro.gf.arithmetic

MODULES = [
    repro.gf.arithmetic,
    repro.codes.rs,
    repro.codes.msr,
    repro.codes.lrc,
    repro.codes.families,
    repro.codes.fr,
    repro.codes.hitchhiker,
    repro.fusion.queues,
    repro.fusion.adaptation,
    repro.fusion.costmodel,
    repro.fusion.framework,
    repro.fusion.transform,
    repro.cluster.events,
    repro.cluster.pipeline,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doc examples"
    assert results.failed == 0


def test_codes_guide_examples():
    """The ``pycon`` blocks of docs/codes.md run against the real classes —
    the at-a-glance table there is evaluated from the family descriptors."""
    guide = pathlib.Path(__file__).resolve().parent.parent / "docs" / "codes.md"
    blocks = re.findall(r"```pycon\n(.*?)```", guide.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "codes.md", None, 0)
    results = doctest.DocTestRunner(verbose=False).run(test)
    assert results.attempted > 20
    assert results.failed == 0
