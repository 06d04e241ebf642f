"""Shared fixtures for the figure and table regenerators.

Every script here is a plain pytest module that recomputes one of the
paper's tables or figures in simulated time (no wall clock; ``bench/`` is
the wall-clock benchmark) and checks its shape.  Simulation-backed scripts
share one memoised campaign configuration so the whole directory
(`pytest benchmarks/`) finishes in well under a minute.  Every script
writes its rendered figure/table to ``benchmarks/results/`` as both
``{name}.txt`` (human-readable) and ``{name}.json`` (machine-readable,
schema ``repro.bench-result/v1``) and echoes it.  The outputs are pure
functions of the seeds, so a run reproduces the committed files byte for
byte and a change that moves a figure shows in ``git diff``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import ExperimentConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: schema tag stamped into every ``results/{name}.json``
BENCH_RESULT_SCHEMA = "repro.bench-result/v1"


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The campaign configuration all simulation benches share."""
    return ExperimentConfig()


@pytest.fixture(scope="session")
def save_result():
    """Writer that persists rendered figure text next to the benches.

    ``_save(name, text)`` keeps writing the legacy ``{name}.txt`` and now
    also leaves ``{name}.json`` with the same content wrapped in a
    versioned envelope.  Benches with structured series pass them via the
    optional ``data`` keyword and they land under the envelope's ``data``
    key; plain-text callers need no change.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, data: object = None) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        envelope = {"schema": BENCH_RESULT_SCHEMA, "name": name, "text": text}
        if data is not None:
            envelope["data"] = data
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        )
        print(f"\n{text}\n")

    return _save
