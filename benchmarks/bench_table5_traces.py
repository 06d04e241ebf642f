"""Table V — the four MSR-trace stand-ins and their summary statistics.

Regenerates the Table V rows from the synthetic generators and checks each
column against the published values.
"""

import pytest

from repro.experiments import format_table
from repro.workloads import TABLE_V, TRACE_NAMES, make_trace


def compute():
    rows = []
    stats = {}
    for name in TRACE_NAMES:
        trace = make_trace(name, num_requests=20_000)
        s = trace.stats()
        stats[name] = s
        rows.append([TABLE_V[name].name, *s.row()])
    text = format_table(
        ["Trace", "# of Requests", "Read%", "IOPS", "Avg. Req. Size"],
        rows,
        title="Table V — trace statistics (20k-request stand-ins)",
    )
    return stats, text


def test_table5_traces(save_result):
    stats, text = compute()
    save_result("table5_traces", text)
    for name, s in stats.items():
        spec = TABLE_V[name]
        assert s.read_fraction == pytest.approx(spec.read_fraction, abs=0.02)
        assert s.iops == pytest.approx(spec.iops, rel=0.05)
        assert s.avg_request_size == pytest.approx(spec.avg_request_size, rel=0.1)
