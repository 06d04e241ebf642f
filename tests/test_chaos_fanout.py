"""Referees of the plan executor's chaos fan-out (``PlanExecutor._fanout``
with a chaos state attached).

Each chunk starts from a zero-delay entry of its own, passes the
reachability check ``PlanExecutor.reach_cb`` and then chains its disk and
NIC holds.  The run keeps ``AllOf``'s semantics: the first failing chunk
ends it with ``done(None, exc)`` exactly once, and its siblings keep
running — and keep booking their holds — unobserved.
"""

import pytest

from repro.chaos import ChaosState, PartitionError
from repro.cluster import Cluster, ClusterConfig, DeadNodeError
from repro.hybrid.plans import OpPlan, PlanKind

NBYTES = 64 * 1024.0
TIMEOUT = 0.5


def chaos_cluster():
    cluster = Cluster(ClusterConfig(num_nodes=8, racks=1), width=6)
    cluster.executor.chaos = ChaosState(partition_timeout=TIMEOUT)
    return cluster


def nodes_of(cluster, slots=(0, 1)):
    """The nodes holding ``slots`` of stripe 0."""
    return [cluster.nodes[cluster.namenode.lookup(0).placement[s]] for s in slots]


def run_read(cluster, slots=(0, 1)):
    """Run a one-plan read of ``slots`` of stripe 0; returns the
    ``(time, value, exc)`` of every ``done`` call."""
    plan = OpPlan(kind=PlanKind.READ, reads={s: NBYTES for s in slots})
    calls = []

    def done(value, exc):
        calls.append((cluster.sim.now, value, exc))

    client = cluster.client
    cluster.executor.run_cb([plan], 0, client.cpu, client.nic, done)
    return calls


def at(cluster, t, fn):
    cluster.sim.call_later(t, lambda _: fn())


def test_both_chunks_fail_done_is_called_once_with_the_first_failure():
    cluster = chaos_cluster()
    nodes = nodes_of(cluster)
    for node in nodes:
        node.fail()
    calls = run_read(cluster)
    cluster.sim.run()
    assert len(calls) == 1
    _t, value, exc = calls[0]
    assert value is None and isinstance(exc, DeadNodeError)
    assert exc.node == nodes[0].node_id  # plan order: chunk 0 fails first


def test_a_failed_runs_surviving_sibling_still_books_its_holds():
    cluster = chaos_cluster()
    dead, alive = nodes_of(cluster)
    dead.fail()
    calls = run_read(cluster)
    cluster.sim.run()
    assert [type(c[2]) for c in calls] == [DeadNodeError]
    assert calls[0][0] == 0.0  # the dead chunk failed at its kick-off
    # nobody observes the sibling, but its disk read and NIC hop happened
    assert alive.disk.served == 1 and alive.nic.served == 1
    assert alive.disk.busy_time == alive.disk.access_time(NBYTES)
    assert alive.nic.busy_time == alive.nic.transfer_time(NBYTES)
    assert dead.disk.served == dead.nic.served == 0
    assert cluster.client.nic.served == 0  # the run never reached ingest


def test_a_partition_that_heals_during_the_wait_proceeds():
    cluster = chaos_cluster()
    chaos = cluster.executor.chaos
    dark, _other = nodes_of(cluster)
    chaos.partition([dark.node_id])
    calls = run_read(cluster)
    at(cluster, TIMEOUT / 2, lambda: chaos.heal([dark.node_id]))
    cluster.sim.run()
    assert len(calls) == 1 and calls[0][2] is None
    assert calls[0][0] > TIMEOUT  # it did wait the timeout out first
    assert dark.disk.served == 1
    assert chaos.partition_timeouts == 0


def test_a_partition_that_outlasts_the_wait_fails_with_partition_error():
    cluster = chaos_cluster()
    chaos = cluster.executor.chaos
    dark, _other = nodes_of(cluster)
    chaos.partition([dark.node_id])
    calls = run_read(cluster)
    cluster.sim.run()
    assert len(calls) == 1
    t, _value, exc = calls[0]
    assert isinstance(exc, PartitionError) and exc.node == dark.node_id
    assert t == pytest.approx(TIMEOUT)
    assert chaos.partition_timeouts == 1


def test_a_node_that_dies_during_the_wait_raises_dead_node_error():
    cluster = chaos_cluster()
    chaos = cluster.executor.chaos
    dark, _other = nodes_of(cluster)
    chaos.partition([dark.node_id])
    calls = run_read(cluster)

    def heal_and_die():
        chaos.heal([dark.node_id])
        dark.fail()

    at(cluster, TIMEOUT / 2, heal_and_die)
    cluster.sim.run()
    assert len(calls) == 1
    assert isinstance(calls[0][2], DeadNodeError) and calls[0][2].node == dark.node_id
    assert dark.disk.served == 0
    assert chaos.partition_timeouts == 0


def test_same_instant_work_booked_ahead_of_a_chunk_goes_first():
    """Each chunk starts from a zero-delay entry of its own: nothing is
    issued inline, and a same-instant disk read booked before the run gets
    the chunk's disk first."""
    cluster = chaos_cluster()
    (node,) = nodes_of(cluster, slots=(0,))
    finished = []

    def ahead(_):
        node.disk.read_cb(NBYTES, lambda _: finished.append(cluster.sim.now))

    cluster.sim.call_later(0.0, ahead)
    calls = run_read(cluster, slots=(0,))
    assert node.disk.served == 0  # the chunk waits for its kick-off entry
    cluster.sim.run()
    d = node.disk.access_time(NBYTES)
    assert finished == [d]
    assert len(calls) == 1 and calls[0][2] is None
    assert calls[0][0] > 2 * d  # the chunk's read queued behind "ahead"


#: heap entries the 12 sim-s ``serve_storm`` shape of
#: ``test_sim_golden.test_serve_storm_digest`` books (chaos seed = seed + 1).
#: The storm digest is blind to the chunks' kick-off entries — dropping
#: them leaves it unchanged at every length — so the entry count is what
#: pins the chaos path to the generator bodies it replaced.
STORM_ENTRIES = {5: 63022, 21: 87965}


@pytest.mark.parametrize("seed", sorted(STORM_ENTRIES))
def test_storm_books_the_recorded_heap_entries(seed, monkeypatch):
    from repro.chaos import ChaosConfig
    from repro.cluster import events
    from repro.server import ServerConfig, WorkloadSpec, run_serving

    sims = []
    init = events.Simulator.__init__

    def recording_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        sims.append(sim)

    monkeypatch.setattr(events.Simulator, "__init__", recording_init)
    spec = WorkloadSpec(
        target_ops=300, duration=12.0, read_fraction=0.9, distribution="zipfian",
        zipf_theta=0.99, num_objects=64, seed=seed,
    )
    run_serving(spec, ServerConfig(failure_rate=0.5), ChaosConfig("storm", seed=seed + 1))
    assert [sim.events_scheduled for sim in sims] == [STORM_ENTRIES[seed]]
