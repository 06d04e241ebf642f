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

A heap entry is ``(time, seq, daemon, fn, arg)`` and firing it is
``fn(arg)`` — :meth:`Simulator.call_later` is the primitive, and a
timeout, a process start, a resource grant and a resource hold are each
exactly one entry.  The order of ``(time, seq)`` pushes is the simulated
result (same-instant events contend for shared disks and NICs in that
order), so the hot paths below keep every push where it is and only make
it cheaper.

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
from collections import deque
from heapq import heapify, heappop, heappush
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

    def settle(self, value=None, exc: BaseException | None = None) -> None:
        """:meth:`succeed` with ``value``, or :meth:`fail` with ``exc``.

        The completion-callback signature ``done(value, exc)`` of the
        callback chains (``PlanExecutor.run_cb``, ``ObjectStore.get_cb``
        …): an event's ``settle`` is how a generator waits on one.
        """
        if exc is None:
            self.succeed(value)
        else:
            self.fail(exc)

    def wait(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already triggered."""
        if self.triggered:
            callback(self)
        else:
            self.callbacks.append(callback)


def _fire(event: Event) -> None:
    """Heap-entry function of a scheduled event (unless fired early)."""
    if not event.triggered:
        event.succeed(event.value)


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

    __slots__ = ("now", "_heap", "_seq", "_pending", "_window")

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, bool, Callable, object]] = []
        self._seq = 0
        self._pending = 0  # scheduled non-daemon entries not yet popped
        #: ``None``, or ``(fall_back, entry)`` of an open quiet window (see
        #: ``run_workload``): its owner booked the one ``call_at`` entry for
        #: work the event path spreads over many, which is exact only while
        #: nobody else pushes — so every push site runs :meth:`_intrude` first
        self._window: tuple[Callable, tuple] | None = None

    @property
    def events_scheduled(self) -> int:
        """Heap entries pushed so far (the tie-breaking sequence number)."""
        return self._seq

    def call_later(self, delay: float, fn: Callable, arg=None, daemon: bool = False) -> None:
        """Arrange for ``fn(arg)`` to run ``delay`` seconds from now.

        The entry-scheduling primitive: one heap entry, no :class:`Event`.
        Daemon entries fire in time order like any other, but do not keep
        :meth:`run` going: the loop stops once only daemons remain.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        if self._window is not None:
            self._intrude()
        self._seq = seq = self._seq + 1
        if not daemon:
            self._pending += 1
        heappush(self._heap, (self.now + delay, seq, daemon, fn, arg))

    def call_at(self, t: float, fn: Callable, arg=None) -> tuple:
        """:meth:`call_later` at the **absolute** time ``t`` (the entry
        carries ``t`` itself: ``now + (t - now) != t`` in floats).
        Returns the heap entry."""
        if t < self.now:
            raise ValueError("cannot schedule into the past")
        if self._window is not None:
            self._intrude()
        self._seq = seq = self._seq + 1
        self._pending += 1
        entry = (t, seq, False, fn, arg)
        heappush(self._heap, entry)
        return entry

    def _intrude(self) -> None:
        """Someone is about to push while a quiet window is open: withdraw
        the window's one entry and let its owner fall back to the event
        path first, so that what it would have pushed by now is numbered
        before the intruder's entry."""
        fall_back, entry = self._window
        self._window = None
        self._heap.remove(entry)  # O(heap), but only daemons share it
        heapify(self._heap)
        self._pending -= 1
        fall_back(entry[4])

    def schedule(self, event: Event, delay: float = 0.0, daemon: bool = False) -> Event:
        """Arrange for ``event`` to succeed ``delay`` seconds from now
        (``daemon`` as in :meth:`call_later`)."""
        self.call_later(delay, _fire, event, daemon)
        return event

    def timeout(self, delay: float, daemon: bool = False) -> Event:
        """An event that fires after ``delay`` simulated seconds."""
        event = Event(self)
        self.call_later(delay, _fire, event, daemon)
        return event

    def process(
        self, gen: Generator, daemon: bool = False, at: float | None = None
    ) -> "Process":
        """Start a coroutine process; returns its completion event.

        The process starts now, or at the absolute time ``at``.  A daemon
        process only marks its *kick-off* entry as daemon; any events the
        generator itself schedules choose their own flag (a pure-daemon
        loop yields ``timeout(..., daemon=True)``).
        """
        return Process(self, gen, daemon=daemon, at=at)

    def all_of(self, events: Iterable[Event]) -> "AllOf":
        """An event that fires once every listed event has fired."""
        return AllOf(self, list(events))

    def step(self) -> bool:
        """Fire the single next entry; False when no real work remains.

        One iteration of :meth:`run`'s loop — same pop order, same daemon
        semantics (the clock stops advancing once only daemon entries are
        left).  This is the hook the asyncio façade
        (:class:`repro.server.AsyncObjectStore`) uses to drive the
        simulation from an ``await``: each awaited operation steps the
        shared clock until its own completion event has fired.
        """
        if not self._heap or not self._pending:
            return False
        if METRICS.enabled:
            METRICS.gauge("sim.heap_depth", unit="events").set(len(self._heap))
        t, _, daemon, fn, arg = heappop(self._heap)
        if not daemon:
            self._pending -= 1
        self.now = t
        fn(arg)
        return True

    def run(self, until: float | None = None) -> None:
        """Execute entries in time order until only daemon entries remain
        in the heap (or the clock passes ``until``)."""
        # The loop is the single hottest function of a campaign; bind the
        # heap and heappop locally and pause the cyclic GC (the engine
        # allocates ~1M objects per campaign whose liveness GC passes keep
        # re-scanning).  Nothing collects cycles mid-run, so no per-request
        # object may reference itself (a cached bound method would): it
        # would live until the run ends and show up as peak RSS.
        heap = self._heap
        pop = heappop
        # The heap only grows while an entry fires, so its depth just
        # before each pop is its exact high-water mark.
        depth = METRICS.gauge("sim.heap_depth", unit="events") if METRICS.enabled else None
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap and self._pending:
                if until is not None and heap[0][0] > until:
                    break
                if depth is not None:
                    depth.set(len(heap))
                t, _, daemon, fn, arg = pop(heap)
                if not daemon:
                    self._pending -= 1
                self.now = t
                fn(arg)
        finally:
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until


#: what a process's kick-off entry delivers: "no event failed, send None"
_START = Event(None)  # type: ignore[arg-type]


class Process(Event):
    """Drives a generator; each yielded :class:`Event` suspends it.

    ``at=t`` starts the process at the **absolute** time ``t`` (the heap
    entry carries ``t`` itself: ``now + (t - now) != t`` in floats, and
    an open-loop request measures its latency from its intended arrival).
    """

    __slots__ = ("_gen",)

    def __init__(
        self, sim: Simulator, gen: Generator, daemon: bool = False, at: float | None = None
    ):
        super().__init__(sim)
        self._gen = gen
        # Kick off via a heap entry so process start respects time order.
        if at is None:
            at = sim.now
        elif at < sim.now:
            raise ValueError("cannot start a process in the past")
        if sim._window is not None:
            sim._intrude()
        sim._seq = seq = sim._seq + 1
        if not daemon:
            sim._pending += 1
        heappush(sim._heap, (at, seq, daemon, self._step, _START))

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
        #: FIFO of waiters: an :class:`Event` per :meth:`acquire`, a
        #: ``(fn, arg, duration, queued_at)`` record per :meth:`use_cb`
        self._waiting: deque = deque()
        self.busy_time = 0.0
        self.served = 0

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
        """Hand the freed server to the next waiter (FIFO).

        The grant is always one zero-delay heap entry, never an inline
        call: whoever else was scheduled for this instant goes first.
        """
        if not self._in_service:
            raise RuntimeError(f"{self.name}: release without acquire")
        waiting = self._waiting
        if waiting:
            waiter = waiting.popleft()
            sim = self.sim
            if sim._window is not None:
                sim._intrude()
            sim._seq = seq = sim._seq + 1
            sim._pending += 1
            grant = self._grant if type(waiter) is tuple else _fire
            heappush(sim._heap, (sim.now, seq, False, grant, waiter))
        else:
            self._in_service -= 1

    def _record(self, duration: float, waited: float) -> None:
        """One granted hold into the ``sim.*.<resource class>`` series."""
        key = self.metric_key
        METRICS.histogram(f"sim.queue_wait.{key}", unit="s").observe(waited)
        METRICS.counter(f"sim.busy_time.{key}", unit="s").inc(duration)
        METRICS.counter(f"sim.served.{key}", unit="requests").inc()

    def use_cb(self, duration: float, fn: Callable, arg=None) -> None:
        """Acquire → hold ``duration`` seconds → release → ``fn(arg)``.

        The callback form of :meth:`use`, and the one implementation of a
        hold: no :class:`Event`, no closure.  An uncontended hold is one
        heap entry (the grant a server would deliver at this instant is
        skipped; completion lands at the identical timestamp), a
        contended one two (zero-delay grant, then the hold); either way
        the last entry releases the server *before* it continues, so the
        next waiter's grant is scheduled ahead of anything ``fn`` does.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        sim = self.sim
        if self._in_service < self.capacity:
            if sim._window is not None:
                sim._intrude()
            self._in_service += 1
            self.busy_time += duration
            self.served += 1
            if METRICS.enabled:
                # telemetry records the zero wait rather than taking the
                # queued path: the event order must not depend on who is
                # watching
                self._record(duration, 0.0)
            sim._seq = seq = sim._seq + 1
            sim._pending += 1
            heappush(sim._heap, (sim.now + duration, seq, False, self._complete, (fn, arg)))
        else:
            self._waiting.append((fn, arg, duration, sim.now))

    # ``use_cb``, ``_grant`` and ``release`` write their pushes out
    # (``Simulator.call_later`` minus the frame): a hold is the most
    # frequent thing the kernel does.

    def _grant(self, waiter: tuple) -> None:
        """Zero-delay grant of a queued :meth:`use_cb` waiter."""
        duration = waiter[2]
        self.busy_time += duration
        self.served += 1
        sim = self.sim
        if METRICS.enabled:
            self._record(duration, sim.now - waiter[3])
        sim._seq = seq = sim._seq + 1
        sim._pending += 1
        heappush(sim._heap, (sim.now + duration, seq, False, self._complete, waiter))

    def _complete(self, waiter: tuple) -> None:
        """End of a hold: release, *then* continue."""
        self.release()
        waiter[0](waiter[1])

    def use_ev(self, duration: float) -> Event:
        """Event that fires once an acquire → hold → release cycle is done
        (:meth:`use_cb` for callers that wait from a generator)."""
        done = Event(self.sim)
        self.use_cb(duration, done.succeed)
        return done

    def use(self, duration: float) -> Generator:
        """Generator helper: hold the resource for ``duration`` seconds
        (kept for the simulator probe; everything else spells a hold as
        ``use_cb`` or ``yield use_ev(…)``)."""
        yield self.use_ev(duration)
