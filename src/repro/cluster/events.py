"""Discrete-event simulation kernel (a compact generator-based engine).

The cluster substrate needs only four primitives, modelled after simpy:

* :class:`Event` — a one-shot occurrence with callbacks and a value;
* :class:`Simulator` — the clock + event heap (``timeout``, ``process``,
  ``run``);
* :class:`Process` — a generator that ``yield``\\ s events; it resumes when
  the yielded event fires and is itself an event that fires on return;
* :class:`FIFOResource` — a single-server queue (disk, NIC, CPU are each
  one of these).

The engine is deterministic: ties in time break by scheduling sequence
number, so a seeded workload always produces identical latencies.

Events may be scheduled as *daemons* (``schedule(..., daemon=True)``):
like daemon threads, they fire while real work is pending but never keep
the simulation alive on their own — ``run()`` stops once only daemon
events remain.  The telemetry snapshot sampler rides on this to take
recurring sim-time readings without changing when a workload ends.

Events can also *fail* (:meth:`Event.fail`): waiters get the exception
thrown into them at their suspension point, exactly like simpy's failed
events.  A failure nobody waits on re-raises immediately out of
:meth:`Simulator.run` — a lost source node surfaces as a clear error at
the call site instead of silently deadlocking the event loop with a
process that never resumes.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Callable, Generator, Iterable

from ..telemetry import METRICS

__all__ = ["Event", "Simulator", "Process", "AllOf", "FIFOResource"]


class Event:
    """A one-shot event; callbacks run when it succeeds (or fails)."""

    __slots__ = ("sim", "callbacks", "triggered", "value", "exc")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self.triggered = False
        self.value = None
        self.exc: BaseException | None = None

    def succeed(self, value=None) -> "Event":
        """Fire the event immediately, delivering ``value`` to waiters."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks = self.callbacks
        # Dropping the reference (rather than swapping in a fresh list)
        # lets the fired list be collected and makes post-trigger
        # registration go through :meth:`wait`'s triggered branch.
        self.callbacks = None
        if callbacks:
            for cb in callbacks:
                cb(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event as *failed*: waiters get ``exc`` thrown into them.

        A failure with no registered waiter re-raises on the spot — out of
        :meth:`Simulator.run` if it happens during the event loop — so a
        broken operation is always a loud error, never a process that
        simply stops resuming (the classic hung-event-loop failure mode).
        """
        if self.triggered:
            raise RuntimeError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self.exc = exc
        callbacks, self.callbacks = self.callbacks, None
        if not callbacks:
            raise exc
        for cb in callbacks:
            cb(self)
        return self

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already triggered."""
        if self.triggered:
            callback(self)
        else:
            self.callbacks.append(callback)

    def succeed_cb(self, _fired: "Event") -> None:
        """Callback adapter: succeed this event when another one fires."""
        self.succeed()


class Simulator:
    """Event heap + clock.

    Examples
    --------
    >>> sim = Simulator()
    >>> log = []
    >>> def proc():
    ...     yield sim.timeout(5)
    ...     log.append(sim.now)
    >>> _ = sim.process(proc())
    >>> sim.run()
    >>> log
    [5.0]
    """

    __slots__ = ("now", "_heap", "_seq", "_pending")

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, bool, Event]] = []
        self._seq = 0
        self._pending = 0  # scheduled non-daemon events not yet popped

    def schedule(self, event: Event, delay: float = 0.0, daemon: bool = False) -> Event:
        """Arrange for ``event`` to succeed ``delay`` seconds from now.

        Daemon events fire in time order like any other, but do not keep
        :meth:`run` going: the loop stops once only daemons remain.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        if not daemon:
            self._pending += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, daemon, event))
        if METRICS.enabled:
            METRICS.gauge("sim.heap_depth", unit="events").set(len(self._heap))
        return event

    def timeout(self, delay: float, daemon: bool = False) -> Event:
        """An event that fires after ``delay`` simulated seconds."""
        # Inlined schedule(): this is the single most-called scheduling
        # entry point, and the extra frame shows up in campaign profiles.
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        event = Event(self)
        self._seq += 1
        if not daemon:
            self._pending += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, daemon, event))
        if METRICS.enabled:
            METRICS.gauge("sim.heap_depth", unit="events").set(len(self._heap))
        return event

    def process(self, gen: Generator, daemon: bool = False) -> "Process":
        """Start a coroutine process; returns its completion event.

        A daemon process only marks its *kick-off* event as daemon; any
        events the generator itself schedules choose their own flag (a
        pure-daemon loop yields ``timeout(..., daemon=True)``).
        """
        return Process(self, gen, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> "AllOf":
        """An event that fires once every listed event has fired."""
        return AllOf(self, list(events))

    def step(self) -> bool:
        """Fire the single next event; False when no real work remains.

        One iteration of :meth:`run`'s loop — same pop order, same daemon
        semantics (the clock stops advancing once only daemon events are
        left).  This is the hook the asyncio façade
        (:class:`repro.server.AsyncObjectStore`) uses to drive the
        simulation from an ``await``: each awaited operation steps the
        shared clock until its own completion event has fired.
        """
        if not self._heap or not self._pending:
            return False
        _t, _, daemon, event = heapq.heappop(self._heap)
        if not daemon:
            self._pending -= 1
        self.now = _t
        if not event.triggered:
            event.succeed(event.value)
        return True

    def run(self, until: float | None = None) -> None:
        """Execute events in time order until only daemon events remain
        in the heap (or the clock passes ``until``)."""
        # The loop is the single hottest function of a campaign; bind the
        # heap and heappop locally and pause the cyclic GC (the engine
        # allocates ~1M objects per campaign whose liveness GC passes keep
        # re-scanning; nothing here creates cycles worth collecting
        # mid-run).  Event order is untouched: same heap, same keys.
        heap = self._heap
        pop = heapq.heappop
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and self._pending:
                t = heap[0][0]
                if until is not None and t > until:
                    break
                t, _, daemon, event = pop(heap)
                if not daemon:
                    self._pending -= 1
                self.now = t
                if not event.triggered:
                    event.succeed(event.value)
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until


class Process(Event):
    """Drives a generator; each yielded :class:`Event` suspends it."""

    __slots__ = ("_gen",)

    def __init__(self, sim: Simulator, gen: Generator, daemon: bool = False):
        super().__init__(sim)
        self._gen = gen
        # Kick off via a zero-delay event so process start respects time order.
        start = Event(sim)
        start.wait(self._step)
        sim.schedule(start, 0.0, daemon=daemon)

    def _step(self, fired: Event) -> None:
        try:
            if fired.exc is not None:
                # the awaited event failed: surface it at the yield point
                target = self._gen.throw(fired.exc)
            else:
                target = self._gen.send(fired.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # the generator raised (or declined to handle a failure):
            # deliver to whoever waits on this process — or loudly to the
            # event loop when nobody does
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise TypeError(f"process yielded {type(target).__name__}, expected Event")
        target.wait(self._step)


class AllOf(Event):
    """Barrier event: succeeds when all children have succeeded.

    If any child fails, the barrier fails with that child's exception
    (first failure wins); siblings keep running but their outcomes are no
    longer observed through the barrier.
    """

    __slots__ = ("_pending",)

    def __init__(self, sim: Simulator, events: list[Event]):
        super().__init__(sim)
        self._pending = len(events)
        if self._pending == 0:
            sim.schedule(self, 0.0)
            return
        for ev in events:
            ev.wait(self._child_done)

    def _child_done(self, child: Event) -> None:
        if self.triggered:
            return  # barrier already failed on an earlier child
        if child.exc is not None:
            self.fail(child.exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed()


class FIFOResource:
    """A FIFO queue with ``capacity`` servers — the building block for
    disks/NICs/CPUs (all single-server) and the recovery scheduler's
    global repair-slot limiter (multi-server).

    ``use(duration)`` is the common pattern: acquire, hold for ``duration``
    simulated seconds, release.  Utilisation statistics are tracked for the
    experiment reports.  At ``capacity=1`` (the default) the behaviour —
    grant order, event counts, timestamps — is identical to the historical
    single-server implementation, which the golden-digest test pins.
    """

    def __init__(self, sim: Simulator, name: str = "resource", capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.sim = sim
        self.name = name
        # resources are named "disk3"/"nic0"/"client-cpu"; metrics aggregate
        # over the class, so "disk3" and "disk7" share the "disk" series
        self.metric_key = name.rstrip("0123456789") or name
        self.capacity = capacity
        self._in_service = 0
        self._waiting: deque[Event] = deque()
        self.busy_time = 0.0
        self.served = 0

    @property
    def _busy(self) -> bool:
        """True when no server is free (back-compat view of the old flag)."""
        return self._in_service >= self.capacity

    @property
    def queue_depth(self) -> int:
        """Requests currently queued or in service (bytes "in flight")."""
        return len(self._waiting) + self._in_service

    def acquire(self) -> Event:
        """Event that fires when the caller holds a server."""
        ev = Event(self.sim)
        if self._in_service < self.capacity:
            self._in_service += 1
            self.sim.schedule(ev, 0.0)
        else:
            self._waiting.append(ev)
        return ev

    def release(self) -> None:
        """Hand the freed server to the next waiter (FIFO)."""
        if not self._in_service:
            raise RuntimeError(f"{self.name}: release without acquire")
        if self._waiting:
            self.sim.schedule(self._waiting.popleft(), 0.0)
        else:
            self._in_service -= 1

    def _release_cb(self, _ev: Event) -> None:
        self.release()

    def _record(self, duration: float, waited: float) -> None:
        """One granted hold into the ``sim.*.<resource class>`` series."""
        key = self.metric_key
        METRICS.histogram(f"sim.queue_wait.{key}", unit="s").observe(waited)
        METRICS.counter(f"sim.busy_time.{key}", unit="s").inc(duration)
        METRICS.counter(f"sim.served.{key}", unit="requests").inc()

    def use_ev(self, duration: float) -> Event:
        """Event that fires once an acquire → hold → release cycle is done.

        This is the flattened form of :meth:`use`: the acquire/hold chain
        runs through event callbacks instead of a generator frame, which
        removes one to two frame resumptions per resource hold on the
        simulator's hottest path.  Timing, accounting, FIFO order and the
        release-before-continuation ordering are identical to :meth:`use`.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        sim = self.sim
        if self._in_service < self.capacity:
            # Uncontended fast path: claim a server now and wait only for
            # the hold itself.  ``acquire`` would bump ``_in_service`` at
            # this exact moment anyway and deliver the grant through a
            # zero-delay heap event; completion lands at the identical
            # timestamp, so skipping the grant event removes ~a third of all
            # heap traffic without moving any latency.  Telemetry records
            # the zero queue wait here rather than taking the slow path:
            # the event order must not depend on who is watching.
            self._in_service += 1
            self.busy_time += duration
            self.served += 1
            if METRICS.enabled:
                self._record(duration, 0.0)
            done = sim.timeout(duration)
            done.callbacks.append(self._release_cb)
            return done
        done = Event(sim)
        queued_at = sim.now

        def _finished(_ev: Event) -> None:
            self.release()
            done.succeed()

        def _granted(_ev: Event) -> None:
            self.busy_time += duration
            self.served += 1
            if METRICS.enabled:
                self._record(duration, sim.now - queued_at)
            hold = sim.timeout(duration)
            hold.callbacks.append(_finished)

        self.acquire().wait(_granted)
        return done

    def use(self, duration: float) -> Generator:
        """Generator helper: hold the resource for ``duration`` seconds."""
        yield self.use_ev(duration)
