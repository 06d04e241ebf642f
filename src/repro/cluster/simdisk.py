"""Simulated disk: a FIFO device with per-I/O latency and streaming bandwidth.

Service time for an ``nbytes`` access is

    ceil(nbytes / φ) · io_latency  +  nbytes / bandwidth

— φ (bytes per I/O operation) comes from the same
:class:`~repro.fusion.costmodel.SystemProfile` the analytic cost model
uses, so simulated disk behaviour and Table III's γ/φ terms agree.
"""

from __future__ import annotations

import math

from ..telemetry import METRICS
from .events import Event, FIFOResource, Simulator

__all__ = ["Disk"]


class Disk(FIFOResource):
    """One storage device attached to a data node.

    Parameters
    ----------
    bandwidth:
        Sustained throughput in bytes/second.
    io_latency:
        Seconds of fixed cost per I/O operation.
    phi:
        Bytes transferred by a single I/O operation (Table I's φ).

    A :class:`~repro.cluster.DataNode` sizes it from its
    :class:`~repro.fusion.costmodel.SystemProfile`.
    """

    def __init__(
        self, sim: Simulator, name: str, bandwidth: float, io_latency: float, phi: float
    ):
        super().__init__(sim, name)
        if bandwidth <= 0 or io_latency < 0 or phi <= 0:
            raise ValueError("invalid disk parameters")
        self.bandwidth = bandwidth
        self.io_latency = io_latency
        self.phi = phi
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        #: chaos derating: service times are multiplied by this factor while a
        #: transient slowdown fault is active (1.0 = healthy, bit-identical)
        self.derate = 1.0

    def access_time(self, nbytes: float) -> float:
        """Service time for one read or write of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        ios = math.ceil(nbytes / self.phi) if nbytes else 0
        t = ios * self.io_latency + nbytes / self.bandwidth
        if self.derate != 1.0:
            t *= self.derate
        return t

    def read_cb(self, nbytes: float, fn, arg=None) -> None:
        """Occupy the disk for one read, then ``fn(arg)`` (the executor's
        hot path; :meth:`read_ev` wraps it)."""
        self.bytes_read += nbytes
        if METRICS.enabled:
            METRICS.counter("cluster.disk.bytes_read", unit="bytes").inc(nbytes)
        self.use_cb(self.access_time(nbytes), fn, arg)

    def book_read(self, nbytes: float, duration: float) -> None:
        """What an uncontended :meth:`read_cb` books, minus the heap entry
        (a quiet window prices the hold and books it at landing)."""
        self.bytes_read += nbytes
        self.busy_time += duration
        self.served += 1
        if METRICS.enabled:
            METRICS.counter("cluster.disk.bytes_read", unit="bytes").inc(nbytes)
            self._record(duration, 0.0)

    def read_ev(self, nbytes: float) -> Event:
        """Event flavour of :meth:`read_cb` (``yield disk.read_ev(n)``)."""
        done = Event(self.sim)
        self.read_cb(nbytes, done.succeed)
        return done

    def write_cb(self, nbytes: float, fn, arg=None) -> None:
        """Occupy the disk for one write, then ``fn(arg)``."""
        self.bytes_written += nbytes
        if METRICS.enabled:
            METRICS.counter("cluster.disk.bytes_written", unit="bytes").inc(nbytes)
        self.use_cb(self.access_time(nbytes), fn, arg)

    def book_write(self, nbytes: float, duration: float) -> None:
        """:meth:`book_read` for an uncontended :meth:`write_cb`."""
        self.bytes_written += nbytes
        self.busy_time += duration
        self.served += 1
        if METRICS.enabled:
            METRICS.counter("cluster.disk.bytes_written", unit="bytes").inc(nbytes)
            self._record(duration, 0.0)

    def write_ev(self, nbytes: float) -> Event:
        """Event flavour of :meth:`write_cb`."""
        done = Event(self.sim)
        self.write_cb(nbytes, done.succeed)
        return done
