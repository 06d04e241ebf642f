"""Serving layer: an object-store façade + open-loop load generation.

``repro.server`` is where the reproduction stops being figure replay and
becomes a *system you can drive*: named objects striped over the
simulated cluster, degraded reads that piggyback on in-flight repairs,
background reconstruction through the risk-ordered scheduler, and a
YCSB-style open-loop workload driver that reports user-facing SLO
latency (p50/p99/p999) instead of sim-time speedups.

Entry points
------------
* :class:`ObjectStore` / :class:`AsyncObjectStore` — put/get/delete
  (the async variant drives the shared simulator from ``await``);
* :class:`ServerConfig` — cluster shape + striping policy;
* :class:`WorkloadSpec` / :func:`run_serving` — one seeded serving run;
* ``python -m repro serve`` — the CLI wrapper (report + chaos knobs).

See ``docs/serving.md`` for the object model and a worked report.
"""

from .._lazy import lazy_exports

__all__ = [
    "AsyncObjectStore",
    "Arrival",
    "DISTRIBUTIONS",
    "ObjectMeta",
    "ObjectStore",
    "ServerConfig",
    "ServingResult",
    "WorkloadSpec",
    "generate_arrivals",
    "run_serving",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".loadgen": ("DISTRIBUTIONS", "Arrival", "ServingResult", "WorkloadSpec", "generate_arrivals",
                 "run_serving"),
    ".store": ("AsyncObjectStore", "ObjectMeta", "ObjectStore", "ServerConfig"),
})  # fmt: skip
