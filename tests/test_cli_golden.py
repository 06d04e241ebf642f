"""Golden digests of ``python -m repro``: stdout and every file a run writes.

A fixed set of small invocations covers every kind of command — the
analytic figures, the simulation campaigns with ``--trace``/``--report``,
standalone ``stats``, ``chaos``, ``tournament``, ``serve``,
``durability``, and the offline ``trace-report``/``explain`` on traces
the earlier invocations recorded.  Each test pins the sha256 of stdout
and of each output file, so a refactor of the CLI that changes a single
byte of what a user sees (a dropped blank line, a report section left
out, a report ``config`` other than the one that ran) fails here.

Every invocation runs in its own interpreter: campaigns are memoised per
process, so a run with telemetry off must never serve one with it on.
Reports are hashed without their ``host`` section, which names the GF
kernels of the machine the run happened on.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: (name, argv, {output: sha256}); ``{d}`` is the run directory, ``stdout``
#: the captured standard output, every other key a file under ``{d}``
GOLDEN = [
    (
        "analytic",
        ["fig13", "fig14", "fig15", "eta", "table4", "--k", "8"],
        {"stdout": "7207168eb541267744eb5ae73be5a3582cf17326f7fc2c3ae77aeb79dcf98005"},
    ),
    (
        "fig16_fig17",
        ["fig16", "fig17", "--requests", "60", "--stripes", "12",
         "--report", "{d}/fig.json", "--trace", "{d}/fig.jsonl"],
        {
            "stdout": "75cf93db607c7e3b04b0f8155d2995abc989ddc73739a4789cd2039f293c5dff",
            "fig.json": "f3a8dd62a944edf3962ef6f2e7606cc3a65fa734e46fdb2b0f04e0a4bf95be46",
            "fig.jsonl": "969d4198088a8bc0655a21cd30de5ce36aa3952b0a07b7c1da9bdbcca9e151a2",
        },
    ),
    (
        "stats",
        ["stats", "--requests", "37", "--stripes", "9", "--report", "{d}/stats.json"],
        {
            "stdout": "c8cdc8de5910efe9b85f8010bd7ed4fec9d30ae0db35e4240458b18677b187ee",
            "stats.json": "7b3c65ef88b9c28b200caeae1ffaa4f92e4f1e942f6f2230cec01fd0c14139d0",
        },
    ),
    (
        # no workload flags: the compact campaign runs at stats' own
        # 150 requests x 24 stripes, and the report must say so
        "stats_defaults",
        ["stats", "--report", "{d}/stats-defaults.json"],
        {
            "stdout": "37b5a496a5ba5b7d192c5ebff2d4d0d7f878ef8978b89f5f041a73a4d3963447",
            "stats-defaults.json": "60ac2af40ce8fa1bd475ff4ecd6704a7bb3fbfa19a2fe2471725397dcabfb963",
        },
    ),
    (
        "chaos",
        ["chaos", "--chaos-profile", "storm", "--chaos-seed", "1",
         "--verify-invariants", "--requests", "60", "--stripes", "12",
         "--report", "{d}/chaos.json"],
        {
            "stdout": "a9031e7ae635d92e7f11ace26adc3f313039314bd9f3350d0ac9de3440ae1c88",
            "chaos.json": "9430447a43c51a4c5aa527141db25ae6cc84d40f5c3eef7ebc90d5d2f26acab3",
        },
    ),
    (
        "tournament",
        ["tournament", "--requests", "40", "--stripes", "8",
         "--report", "{d}/tournament.json"],
        {
            "stdout": "a09db27fe65e4885d27d119639d2e3df738de75b7a9533b2124ed6ba5ecefb73",
            "tournament.json": "66e1871aed710f75cfce5afc51e32bad903876a6bfc667b676532e4ddd2aca61",
        },
    ),
    (
        "serve",
        ["serve", "--target-ops", "300", "--duration", "3", "--chaos-profile",
         "storm", "--seed", "5", "--report", "{d}/serve.json",
         "--trace", "{d}/serve.jsonl"],
        {
            "stdout": "7fc96f791b9032ac1f2479fb8d389ab6d6869fe08ecc1e301dba3eb9f4ca089d",
            "serve.json": "0524be6dd506c181f5657cafc78dbcfa4e9d9fb1ffcce7d89acb804d376c24d7",
            "serve.jsonl": "91baed017b80984197674169be21e55feb841b5542c64148ec613eeda257db2d",
        },
    ),
    (
        "durability",
        ["durability", "--stripes", "2000", "--years", "2", "--topology", "geo",
         "--report", "{d}/durability.json"],
        {
            "stdout": "5506f82176d13739a9d238b0564c0ca7f3055b4bd6772038f3de13f8beb6fca2",
            "durability.json": "39e3ff66cd2e2eac6f42dc761927490193e10c4199fba41f3e91793ceacb72be",
        },
    ),
    (
        "trace_report",
        ["trace-report", "{d}/fig.jsonl"],
        {"stdout": "4f9c2f141884dd60ba678bad5f2c6b10bcd169f2c9a9252c07d5757f5296646c"},
    ),
    (
        "explain",
        ["explain", "{d}/serve.jsonl", "--perfetto", "{d}/perfetto.json"],
        {
            "stdout": "81344d06bd413eda015fa1eb3a537b1915cd93dd652266e1cd12524d6b254d3a",
            "perfetto.json": "ad701243d4d6ee8cd1a0db89aac860d3f4ae016effe0f421634bdb512565ae54",
        },
    ),
]

#: files hashed as reports (``host`` dropped); the rest are hashed raw
REPORTS = {"fig.json", "stats.json", "stats-defaults.json", "chaos.json",
           "tournament.json", "serve.json", "durability.json"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(path: Path) -> str:
    if path.name not in REPORTS:
        return _sha(path.read_bytes())
    doc = json.loads(path.read_text())
    doc.pop("host", None)
    return _sha(json.dumps(doc, sort_keys=True).encode())


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Run every invocation in order (later ones read earlier traces)."""
    run_dir = tmp_path_factory.mktemp("cli-golden")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = {}
    for name, argv, expected in GOLDEN:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *(a.format(d=run_dir) for a in argv)],
            capture_output=True,
            cwd=run_dir,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()[-800:]
        got = {"stdout": _sha(proc.stdout)}
        for output in expected:
            if output != "stdout":
                got[output] = _digest(run_dir / output)
        out[name] = got
    return out


@pytest.mark.parametrize(
    "name, expected", [(name, expected) for name, _, expected in GOLDEN],
    ids=[name for name, _, _ in GOLDEN],
)
def test_cli_output_digests(digests, name, expected):
    assert digests[name] == expected
