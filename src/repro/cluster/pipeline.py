"""Pipelined repair: chunked partial-combination streaming (ECPipe-style).

Conventional repair (``PlanExecutor.execute``) pulls every helper's full
read into one reconstructor, so a single NIC serialises ``k·γ`` bytes for
RS — exactly the Table III transmission bottleneck.  Repair pipelining
(Li et al., *Repair Pipelining for Erasure-Coded Storage*) slices the
rebuilt block into ``C`` fixed-size chunks and streams **partial GF
combinations** hop-by-hop along a path of surviving helpers:

* hop 0 reads its chunk-slice from disk, scales it by its repair
  coefficient (RS: one row of :meth:`~repro.codes.ReedSolomonCode.
  repair_coefficients`; MSR: the :meth:`~repro.codes.MSRCode.
  repair_helper_plan` column block of the fused repair matrix) and
  forwards the partial;
* every later hop folds its own scaled slice into the incoming partial
  (one XOR — GF sums commute, so any hop order is byte-identical) and
  forwards it on;
* the final partial lands at the reconstructor, which writes the chunk.

Each hop's disk/CPU/NIC are FIFO servers, so chunk ``c+1`` occupies hop
``h`` while chunk ``c`` occupies hop ``h+1`` — the pipeline fills and the
makespan drops from ``k·γ/λ`` through one NIC to roughly
``(C + m)·(γ/C)/λ`` across ``m`` hops: bandwidth-bound, not
coordinator-bound.  The functional twin of this schedule — real bytes,
same chunking, same partial sums — is ``repair_streamed`` on both codecs
and :meth:`repro.fusion.ECFusion.recover_streamed`, property-tested
byte-identical to the one-shot repair.  Both codecs run one fold: each
helper's partial plan (its column block of the code's repair matrix) is
applied to the chunk with ``CodingPlan.apply_into(..., accumulate=True)``
straight into the lost block's row, so chunking costs scheduling, not
copies or allocations.

Chaos composes: every hop runs the executor's reachability protocol
(:meth:`~repro.cluster.PlanExecutor.reach_cb`), so a mid-pipeline kill
fails the job fast with :class:`~repro.cluster.DeadNodeError` and a
partition stalls then raises :class:`~repro.chaos.PartitionError` — which
the supervising :class:`~repro.cluster.RecoveryManager` turns into its
usual exponential-backoff re-stream of the whole job.

:func:`run_pipelined_cb` is the implementation: the chunk flows are
generator processes, the job around them — the barrier over the flows,
the reconstructor's final write — a callback chain ending in
``done(None, exc)``, so a supervisor that is itself a callback chain
starts it without a process-start entry.  :func:`execute_pipelined` is
its generator adapter.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Hashable

from ..hybrid.plans import OpPlan
from ..telemetry import METRICS, TRACER
from .events import Event

__all__ = ["DEFAULT_CHUNK", "pipeline_slices", "run_pipelined_cb", "execute_pipelined"]

#: default pipeline chunk size in bytes (1 MiB — small enough to fill the
#: pipe at γ = 27 MiB, large enough that per-chunk latency stays noise)
DEFAULT_CHUNK = float(1 << 20)


def pipeline_slices(output_bytes: float, chunk_size: float) -> tuple[int, float]:
    """Split a rebuilt block into equal pipeline chunks.

    Returns ``(chunks, bytes_per_chunk)``; the block is divided evenly so
    every chunk exercises the pipe identically (the last ragged chunk of a
    naive split would otherwise decide the tail latency).

    Examples
    --------
    >>> pipeline_slices(81.0, 27.0)
    (3, 27.0)
    >>> pipeline_slices(100.0, 30.0)
    (4, 25.0)
    >>> pipeline_slices(10.0, 100.0)
    (1, 10.0)
    """
    if output_bytes < 0 or chunk_size <= 0:
        raise ValueError("need output_bytes >= 0 and chunk_size > 0")
    chunks = max(1, math.ceil(output_bytes / chunk_size))
    return chunks, output_bytes / chunks


def _settle(outcome: Event, exc: BaseException | None) -> None:
    outcome.settle(None, exc)


def _reachable(executor, node) -> Generator:
    """:meth:`~repro.cluster.PlanExecutor.reach_cb` for a chunk flow: one
    :class:`Event`, yielded only when the check has to wait — a check
    settled inline books nothing, and an inline failure raises right here
    (an :class:`Event` failed with nobody waiting re-raises)."""
    outcome = Event(executor.sim)
    executor.reach_cb(node, _settle, outcome)
    if not outcome.triggered:
        yield outcome


class _Pipelined:
    """One :func:`run_pipelined_cb` past its chunk flows: the
    reconstructor's reachability check and write, then ``done``."""

    __slots__ = (
        "executor", "stripe", "done", "ctx", "target", "write_bytes", "hops",
        "chunks", "chunk_out", "output_bytes", "started",
    )

    def streamed(self, flows: Event) -> None:
        if flows.exc is not None:
            self.done(None, flows.exc)
        else:
            self.executor.reach_cb(self.target, _Pipelined.reached, self)

    def reached(self, exc: BaseException | None) -> None:
        if exc is not None:
            self.done(None, exc)
        else:
            self.target.disk.write_cb(self.write_bytes, _Pipelined.written, self)

    def written(self) -> None:
        now = self.executor.sim.now
        if METRICS.enabled:
            METRICS.counter("cluster.pipeline.repairs", unit="jobs").inc()
            METRICS.counter("cluster.pipeline.bytes_streamed", unit="bytes").inc(
                self.output_bytes * (self.hops + 1)
            )
            METRICS.histogram("cluster.pipeline.chunks", unit="chunks").observe(self.chunks)
        if TRACER.enabled:
            # with a causal ctx the event doubles as a child span of the
            # repair trace (streaming is all byte movement: phase="network");
            # without one it serialises exactly as it always did
            causal = TRACER.start_span(self.ctx)
            extra = {"phase": "network"} if causal is not None else {}
            TRACER.emit(
                "pipeline-repair",
                ts=now,
                ctx=causal,
                stripe=self.stripe,
                target=self.target.node_id,
                hops=self.hops,
                chunks=self.chunks,
                chunk_bytes=self.chunk_out,
                latency=now - self.started,
                **extra,
            )
        self.done(None, None)


def run_pipelined_cb(
    executor,
    plan: OpPlan,
    stripe: Hashable,
    done: Callable,
    chunk_size: float = DEFAULT_CHUNK,
    ctx=None,
) -> None:
    """Execute one reconstruction plan as a chunk pipeline, then call
    ``done(None, exc)``.

    The helper path is the plan's read slots in slot order (deterministic);
    the reconstructor is the node owning the plan's write slot.  Per chunk
    and hop the simulation charges: the hop's *proportional share* of its
    local read (``reads[slot]/C`` — γ/C for RS, (γ/r)/C for MSR), the
    partial-combination compute (scale-own-slice at hop 0, scale + fold
    beyond), and one chunk-sized NIC transfer; only a stream's first chunk
    pays the fixed per-transfer link latency.  The plan's lump
    ``compute_ops`` is *not* charged at the reconstructor — the hops have
    already performed the combination, distributed across their CPUs.

    Caller contract: ``plan.reads`` and ``plan.writes`` must be non-empty
    (the :class:`~repro.cluster.RecoveryManager` only routes such plans
    here) and failures end the job exactly like the conventional path —
    ``exc`` is the ``DeadNodeError`` / ``PartitionError`` of the first
    failing chunk.  With a causal ``ctx`` (a
    :class:`~repro.telemetry.SpanContext`) the completion event
    additionally closes as a ``phase="network"`` child span of the
    supervising repair trace.
    """
    if not plan.reads or not plan.writes:
        raise ValueError("pipelined execution needs a plan with reads and writes")
    sim = executor.sim
    info = executor.namenode.lookup(stripe)
    helper_slots = sorted(plan.reads)
    path = [executor.nodes[info.placement[slot]] for slot in helper_slots]
    target_slot = next(iter(plan.writes))
    target = executor.nodes[info.placement[target_slot]]
    output_bytes = max(plan.writes.values())
    chunks, chunk_out = pipeline_slices(output_bytes, chunk_size)
    slice_bytes = [plan.reads[slot] / chunks for slot in helper_slots]

    def chunk_flow(index: int) -> Generator:
        first = index == 0
        for hop, node in enumerate(path):
            yield from _reachable(executor, node)
            yield node.disk.read_ev(slice_bytes[hop])
            # hop 0 scales its own slice; later hops also fold the
            # upstream partial in (one extra XOR pass over the chunk)
            yield node.cpu.compute_ev(chunk_out if hop == 0 else 2 * chunk_out)
            yield node.nic.stream_ev(chunk_out, first=first)
        # ingest at the reconstructor: the last partial is the rebuilt chunk
        yield from _reachable(executor, target)
        yield target.nic.stream_ev(chunk_out, first=first)

    job = _Pipelined()
    job.executor, job.stripe, job.done, job.ctx = executor, stripe, done, ctx
    job.target, job.write_bytes = target, plan.writes[target_slot]
    job.hops, job.chunks, job.chunk_out = len(path), chunks, chunk_out
    job.output_bytes = output_bytes
    job.started = sim.now
    # the barrier observes every flow from the start: the first chunk to
    # fail fails it, and the stragglers' later failures land on a barrier
    # that has already fired — absorbed, never re-raised out of the run
    sim.all_of([sim.process(chunk_flow(c)) for c in range(chunks)]).wait(job.streamed)


def execute_pipelined(
    executor,
    plan: OpPlan,
    stripe: Hashable,
    chunk_size: float = DEFAULT_CHUNK,
    ctx=None,
) -> Generator:
    """Generator adapter of :func:`run_pipelined_cb`: raises the first
    failing chunk's ``DeadNodeError`` / ``PartitionError``."""
    outcome = Event(executor.sim)
    run_pipelined_cb(executor, plan, stripe, outcome.settle, chunk_size, ctx)
    yield outcome
