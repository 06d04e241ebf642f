"""Application and recovery workloads.

* :mod:`repro.workloads.trace` — request/trace model + Table V statistics;
* :mod:`repro.workloads.synthetic` — seeded generator with controlled mix;
* :mod:`repro.workloads.msr_traces` — Table V stand-ins (mds1/rsrch2/web1/rsrch0);
* :mod:`repro.workloads.failures` — temporally/spatially local failure streams.
"""

from .._lazy import lazy_exports

__all__ = [
    "OpType",
    "Request",
    "Trace",
    "TraceStats",
    "SyntheticTraceConfig",
    "generate_trace",
    "zipf_weights",
    "TraceSpec",
    "TABLE_V",
    "TRACE_NAMES",
    "make_trace",
    "FailureEvent",
    "NodeFailureEvent",
    "FailureConfig",
    "BathtubPhases",
    "generate_bathtub_failures",
    "generate_failures",
    "failures_for_trace",
    "correlated_fault_times",
    "save_trace",
    "load_trace",
    "save_failures",
    "load_failures",
    "load_msr_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".failures": ("BathtubPhases", "FailureConfig", "FailureEvent", "NodeFailureEvent",
                  "correlated_fault_times", "failures_for_trace", "generate_bathtub_failures",
                  "generate_failures"),
    ".io": ("load_failures", "load_msr_csv", "load_trace", "save_failures", "save_trace"),
    ".msr_traces": ("TABLE_V", "TRACE_NAMES", "TraceSpec", "make_trace"),
    ".synthetic": ("SyntheticTraceConfig", "generate_trace", "zipf_weights"),
    ".trace": ("OpType", "Request", "Trace", "TraceStats"),
})  # fmt: skip
