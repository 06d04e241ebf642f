"""Process-parallel campaigns must be byte-identical to serial.

``run_campaign(jobs=N)`` fans (scheme, trace) cells over a process pool
and merges results and telemetry deterministically; the contract is that
*no observable output* may depend on the job count — simulation results,
the ``repro.report/v1`` report, trace buffers, snapshot series, and the
golden campaign digest all must match ``jobs=1`` exactly.  The only
exception is the ``fusion.transform.wall.*`` histogram family, which
times host wall-clock rather than simulated work.

Also covers the merge primitives the contract rests on
(``export_state``/``merge_state`` on all three collectors) and the CLI
``--jobs`` plumbing.
"""

import json
import pickle

import pytest

from repro import telemetry
from repro.cli import main
from repro.experiments import ExperimentConfig, run_campaign, set_default_jobs
from repro.experiments import simulation
from repro.experiments.parallel import campaign_tasks, run_campaign_tasks
from repro.telemetry import METRICS, SNAPSHOTS, TRACER
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.snapshots import SnapshotCollector, SnapshotSeries
from repro.telemetry.tracing import TraceRecorder

from tests.test_chaos_golden import GOLDEN_DIGEST, campaign_digest

#: the wall-clock histogram family — measures the host, not the simulation
WALL_PREFIX = "fusion.transform.wall"

PLAIN = ExperimentConfig(num_requests=60, num_stripes=16)
STORM = ExperimentConfig(
    num_requests=60,
    num_stripes=16,
    chaos_profile="storm",
    chaos_seed=1,
    verify_invariants=True,
)


@pytest.fixture(autouse=True)
def clean_state():
    yield
    METRICS.reset()
    METRICS.disable()
    TRACER.clear()
    TRACER.disable()
    SNAPSHOTS.clear()
    SNAPSHOTS.disable()
    simulation._DEFAULT_JOBS[0] = 1


def _strip_wall(report_metrics: dict) -> dict:
    return {k: v for k, v in report_metrics.items() if not k.startswith(WALL_PREFIX)}


def _run_with_telemetry(config: ExperimentConfig, jobs: int):
    METRICS.reset()
    TRACER.clear()
    SNAPSHOTS.clear()
    telemetry.enable(metrics=True, tracing=True, snapshots=True)
    campaign = run_campaign(config, traces=["mds1"], use_cache=False, jobs=jobs)
    report = telemetry.build_report(experiments=["test"], config=None)
    return campaign, report


@pytest.mark.parametrize("config", [PLAIN, STORM], ids=["plain", "storm"])
def test_jobs4_byte_identical_to_serial(config):
    serial, serial_report = _run_with_telemetry(config, jobs=1)
    fanned, fanned_report = _run_with_telemetry(config, jobs=4)

    assert serial.results.keys() == fanned.results.keys()
    for key in serial.results:
        assert pickle.dumps(serial.results[key]) == pickle.dumps(fanned.results[key]), (
            f"simulation result diverged under jobs=4 at {key}"
        )

    serial_report["metrics"] = _strip_wall(serial_report["metrics"])
    fanned_report["metrics"] = _strip_wall(fanned_report["metrics"])
    assert json.dumps(serial_report, sort_keys=True) == json.dumps(
        fanned_report, sort_keys=True
    ), "repro.report/v1 diverged under jobs=4"


def test_golden_digest_survives_fanout():
    """The pre-chaos golden digest must hold under any job count."""
    config = ExperimentConfig(num_requests=120, num_stripes=24)
    campaign = run_campaign(config, traces=["mds1"], use_cache=False, jobs=2)
    assert campaign_digest(campaign) == GOLDEN_DIGEST


def test_task_order_is_canonical():
    tasks = campaign_tasks(PLAIN, ["mds1", "web2"])
    assert [(t.trace_name, t.scheme_name) for t in tasks[:5]] == [
        ("mds1", s) for s in ("RS", "MSR", "LRC", "HACFS", "EC-Fusion")
    ]
    assert all(t.trace_name == "web2" for t in tasks[5:])


def test_one_trace_build_per_trace_shared_read_only(monkeypatch):
    """The schemes of a trace replay one build: sound because a request
    is frozen and ``run_workload`` replays a copy of the request list."""
    import dataclasses

    from repro.experiments import parallel

    builds, replayed = [], []
    make_trace, run_workload = parallel.make_trace, parallel.run_workload

    def counting_make_trace(*args, **kwargs):
        builds.append(make_trace(*args, **kwargs))
        return builds[-1]

    def recording_run_workload(scheme, trace, failures, *args, **kwargs):
        before = list(trace.requests), list(failures)
        result = run_workload(scheme, trace, failures, *args, **kwargs)
        assert (list(trace.requests), list(failures)) == before
        replayed.append(trace)
        return result

    monkeypatch.setattr(parallel, "make_trace", counting_make_trace)
    monkeypatch.setattr(parallel, "run_workload", recording_run_workload)
    tasks = campaign_tasks(PLAIN, ["mds1", "web1"])
    shared = run_campaign_tasks(tasks, jobs=1)
    assert len(builds) == 2 and len(replayed) == 10
    assert all(t is builds[0] for t in replayed[:5]) and all(t is builds[1] for t in replayed[5:])
    with pytest.raises(dataclasses.FrozenInstanceError):
        builds[0].requests[0].stripe = 99
    # a build per cell (what a direct ``_run_cell`` call still does) agrees
    fresh = [parallel._run_cell(task) for task in tasks]
    assert len(builds) == 12
    assert [pickle.dumps(r) for r in shared] == [pickle.dumps(r) for r in fresh]
    # and nothing outlives the campaign in the parent process
    assert parallel._worker_built is None


def test_fanout_preserves_pre_campaign_telemetry():
    """Whatever the collectors held before the campaign must survive it."""
    telemetry.enable(metrics=True)
    METRICS.counter("pre.existing", unit="calls").inc(3)
    run_campaign_tasks(campaign_tasks(PLAIN, ["mds1"]), jobs=1)
    assert METRICS.counter("pre.existing").value == 3.0
    assert "sim.served.disk" in METRICS  # and the campaign's share arrived


def test_run_campaign_tasks_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_campaign_tasks([], jobs=0)
    with pytest.raises(ValueError):
        set_default_jobs(0)


def test_cli_jobs_flag(capsys):
    assert main(["fig13", "--jobs", "0"]) == 2
    capsys.readouterr()
    assert main(
        ["fig17", "--jobs", "2", "--requests", "40", "--stripes", "12"]
    ) == 0
    assert simulation._DEFAULT_JOBS[0] == 2  # threaded to every campaign
    out = capsys.readouterr().out
    assert "recovery" in out.lower() or "fig" in out.lower() or out.strip()


# -- merge primitive semantics ----------------------------------------------


def test_metrics_merge_semantics():
    a = MetricsRegistry(enabled=True)
    b = MetricsRegistry(enabled=True)
    a.counter("c", unit="x").inc(2)
    b.counter("c", unit="x").inc(5)
    a.gauge("g").set(9)
    b.gauge("g").set(4)
    for v in (0.5, 1.5):
        a.histogram("h", unit="s").observe(v)
    b.histogram("h", unit="s").observe(10.0)

    a.merge_state(b.export_state())
    assert a.counter("c").value == 7.0
    assert a.gauge("g").value == 4.0  # incoming is the later writer
    assert a.gauge("g").high_water == 9.0
    h = a.histogram("h")
    assert h.count == 3
    assert h.total == 12.0
    assert h.min == 0.5 and h.max == 10.0
    assert sum(h.counts) == 3


def test_metrics_merge_rejects_bound_mismatch():
    a = MetricsRegistry(enabled=True)
    b = MetricsRegistry(enabled=True)
    a.histogram("h", buckets=[1.0, 2.0]).observe(1.0)
    b.histogram("h", buckets=[1.0, 3.0]).observe(1.0)
    with pytest.raises(ValueError):
        a.merge_state(b.export_state())


def test_tracer_merge_respects_capacity():
    src = TraceRecorder(enabled=True)
    for i in range(5):
        src.emit("evt", ts=float(i), index=i)
    dst = TraceRecorder(enabled=True, capacity=3)
    dst.merge_state(src.export_state())
    assert len(dst.events) == 3
    assert dst.dropped == 2
    assert [ev.fields["index"] for ev in dst.events] == [0, 1, 2]


def test_snapshot_merge_appends_series():
    src = SnapshotCollector(enabled=True)
    series = SnapshotSeries("run-a", ["depth"])
    series.append(0.0, {"depth": 1.0})
    series.append(5.0, {"depth": 3.0})
    src.series.append(series)
    dst = SnapshotCollector(enabled=True)
    dst.merge_state(src.export_state())
    assert dst.labels() == ["run-a"]
    assert dst.get("run-a").column("depth") == [1.0, 3.0]
    assert dst.to_dict() == src.to_dict()


def _square(x):
    return x * x


def test_map_tasks_preserves_order():
    from repro.experiments import map_tasks

    tasks = list(range(23))
    assert map_tasks(_square, tasks, jobs=1) == [x * x for x in tasks]
    assert map_tasks(_square, tasks, jobs=3) == [x * x for x in tasks]


def test_map_tasks_rejects_bad_jobs():
    from repro.experiments import map_tasks

    with pytest.raises(ValueError):
        map_tasks(_square, [1, 2], jobs=0)


def test_durability_jobs_byte_identical_to_serial():
    """The durability sweep rides map_tasks; its report section must not
    depend on the job count (same contract as run_campaign --jobs)."""
    from repro.durability import DurabilityConfig, TOPOLOGIES, run_durability

    config = DurabilityConfig(
        stripes=200, years=3.0, seed=9, topology=TOPOLOGIES["rack"]
    )
    serial = run_durability(config, jobs=1)
    fanned = run_durability(config, jobs=3)
    assert json.dumps(serial, sort_keys=True) == json.dumps(fanned, sort_keys=True)
