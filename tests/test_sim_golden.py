"""Golden regression: the DES kernel moves no tie.

Every figure past Table III and every serving SLO number comes out of
``cluster/events.py``; the order in which same-instant events contend
for a shared disk or NIC *is* the simulated result.  The digests below
were recorded at commit 3dc3b35 — before the callback-scheduled kernel —
over every latency sample and counter a run produces.  A kernel edit
that changes one of them is dropped, never re-recorded.

What each shape sees, measured by mutating a throw-away copy
(``docs/performance.md`` § Measured dead ends has the digests):

* ``serve_degraded`` is the tie-sensitive one — repair traffic and
  foreground reads share disks.  Granting the next ``use_cb`` waiter
  inline on release, releasing after the continuation, or paying a grant
  entry on an uncontended hold fails it at all three seeds; removing the
  process-start hop from ``get_op``'s healthy fan-out is invisible at
  seed 21 and at every 10 sim-s length and fails only the 60 sim-s runs
  at seeds 5 and 77 — which is why they are here, ~3 s each;
* the storm, steady and campaign shapes did not move under any of those:
  they guard time arithmetic and lost or duplicated events (and the
  chaos path's ``Process``/``AllOf`` machinery), not tie order.

The digest function is ``bench/workloads.py``'s, so the full-length
``serve_degraded`` values share their first 16 hex digits with the
``bench/run.py`` digests at the same seed.
"""

import hashlib
import json
import struct

import pytest

from repro.chaos import ChaosConfig
from repro.experiments import ExperimentConfig, run_campaign
from repro.server import ServerConfig, WorkloadSpec, run_serving


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)) and part and isinstance(part[0], float):
            h.update(struct.pack(f"<{len(part)}d", *part))
        else:
            h.update(json.dumps(part, sort_keys=True, default=str).encode())
    return h.hexdigest()


def serving_digest(spec: WorkloadSpec, failure_rate=0.0, chaos=None) -> str:
    r = run_serving(spec, ServerConfig(failure_rate=failure_rate), chaos)
    assert r.offered == r.completed + r.failed
    return _digest(
        r.get_latencies, r.put_latencies, r.degraded_latencies,
        r.repair_latencies, r.stats, r.failed, r.chaos,
    )


def campaign_digest(seed: int) -> str:
    config = ExperimentConfig(num_requests=300, seed=seed)
    campaign = run_campaign(config, use_cache=False, jobs=1)
    return _digest(*[
        part for key in sorted(campaign.results)
        for r in [campaign.results[key]]
        for part in (key, r.read_latencies, r.write_latencies,
                     r.recovery_latencies, r.storage_overhead, r.sim_time)
    ])


#: the ``serve_degraded`` shape at its full 60 sim-s length
DEGRADED = {
    5: "c3968e1047b7d0d74c146124c863fbf888e920073c02b38f09ff0ed7ae04bad5",
    21: "30ed2d0978784867394cd9ccec5889980cd999b8967225f114459bb6806bcc69",
    77: "32ac078cf46fc21e8c8530b18d7440c3551a0d1615641fa4005e9acf2dfe0f1a",
}
#: the ``serve_storm`` shape at its 12 sim-s quick length, chaos seed = seed + 1
STORM = {
    5: "7a8204b06ed924a934b6deb1dc706f11d167031b8b1374f154ef3bb93e71a2be",
    21: "363b5dd39aa1e1c3cd1519eb3cae8545d1aee206a15077b0e3c6b007fa07b4ce",
}
#: the top rung of the ``serve_steady`` ladder (800 ops/s, 12 sim-s, seed 21)
STEADY_800 = "59688cbc9df899441a2317c1b872ac8aab04268006ce548f166708c294ee593c"
#: a 300-request ``run_campaign`` (5 schemes x 4 Table-V traces)
CAMPAIGN = {
    5: "1698fa111704b998678a23d0659a39ac9f218c8a316a751c3d54cf8bf456eb15",
    21: "ea7f6d600426c370b21473b2bcce35277f8c139d88abaeb9f71f069e11a8c7ee",
}


@pytest.mark.parametrize("seed", sorted(DEGRADED))
def test_serve_degraded_digest(seed):
    spec = WorkloadSpec(
        target_ops=300, duration=60.0, read_fraction=0.7, distribution="latest",
        zipf_theta=0.99, num_objects=64, seed=seed,
    )
    assert serving_digest(spec, failure_rate=200.0) == DEGRADED[seed]


@pytest.mark.parametrize("seed", sorted(STORM))
def test_serve_storm_digest(seed):
    spec = WorkloadSpec(
        target_ops=300, duration=12.0, read_fraction=0.9, distribution="zipfian",
        zipf_theta=0.99, num_objects=64, seed=seed,
    )
    chaos = ChaosConfig("storm", seed=seed + 1)
    assert serving_digest(spec, failure_rate=0.5, chaos=chaos) == STORM[seed]


def test_serve_steady_rung_digest():
    spec = WorkloadSpec(
        target_ops=800, duration=12.0, read_fraction=0.95, distribution="zipfian",
        zipf_theta=0.99, num_objects=64, seed=21,
    )
    assert serving_digest(spec) == STEADY_800


@pytest.mark.parametrize("seed", sorted(CAMPAIGN))
def test_campaign_digest(seed):
    assert campaign_digest(seed) == CAMPAIGN[seed]


#: heap entries the ``serve_degraded`` shape books at 12 sim-s, recorded at
#: 3e236e0.  A digest hashes the outcome, not the schedule: this shape runs
#: the store's repair, conversion and ride steps the most, and the count is
#: what pins where each of them books its entries.
DEGRADED_ENTRIES = {5: 118848, 21: 117157}


@pytest.mark.parametrize("seed", sorted(DEGRADED_ENTRIES))
def test_serve_degraded_books_the_recorded_heap_entries(seed, monkeypatch):
    from repro.cluster import events

    sims = []
    init = events.Simulator.__init__

    def recording_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        sims.append(sim)

    monkeypatch.setattr(events.Simulator, "__init__", recording_init)
    spec = WorkloadSpec(
        target_ops=300, duration=12.0, read_fraction=0.7, distribution="latest",
        zipf_theta=0.99, num_objects=64, seed=seed,
    )
    run_serving(spec, ServerConfig(failure_rate=200.0))
    assert [sim.events_scheduled for sim in sims] == [DEGRADED_ENTRIES[seed]]
