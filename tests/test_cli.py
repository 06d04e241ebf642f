"""Tests for the command-line interface."""

import json

import pytest

from repro import telemetry
from repro.cli import EXPERIMENTS, Experiment, build_parser, config_from_args, main


@pytest.fixture(autouse=True)
def clean_telemetry():
    """CLI runs flip the global telemetry switches; leave them off."""
    yield
    telemetry.disable()
    telemetry.reset()


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig13"])
        assert args.experiments == ["fig13"]
        assert args.k == [6, 8]

    def test_overrides_build_config(self):
        args = build_parser().parse_args(
            ["fig16", "--requests", "50", "--stripes", "12", "--seed", "3",
             "--failure-rate", "0.2"]
        )
        config = config_from_args(args)
        assert config.num_requests == 50
        assert config.num_stripes == 12
        assert config.seed == 3
        assert config.failure_rate == pytest.approx(0.2)

    def test_default_config_untouched(self):
        args = build_parser().parse_args(["fig13"])
        from repro.experiments import ExperimentConfig

        assert config_from_args(args) == ExperimentConfig()


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_analytic_figures_run(self, capsys):
        assert main(["fig13", "fig14", "fig15", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 13" in out
        assert "Fig. 14" in out
        assert "Fig. 15" in out

    def test_simulation_figure_runs_small(self, capsys):
        code = main(
            ["fig17", "--requests", "60", "--stripes", "10", "--failure-rate", "0.1"]
        )
        assert code == 0
        assert "Fig. 17" in capsys.readouterr().out

    def test_all_includes_every_experiment(self):
        names = ["all"]
        # resolves to the full list without erroring on name resolution
        args = build_parser().parse_args(names)
        assert args.experiments == ["all"]


class TestTraceFile:
    ARGS = ["fig17", "--requests", "30", "--stripes", "8", "--failure-rate", "0.1"]

    def test_trace_written_and_parseable(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(self.ARGS + ["--trace", str(trace)]) == 0
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        assert events and all("ts" in e and "kind" in e for e in events)
        assert not list(tmp_path.glob(".trace-*"))  # temp renamed away

    def test_unwritable_dir_fails_fast(self, tmp_path, capsys):
        assert main(["fig13", "--trace", str(tmp_path / "no" / "t.jsonl")]) == 2
        assert "cannot write trace file" in capsys.readouterr().err

    def test_preexisting_trace_survives_bad_experiment(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"ts": 0.0, "kind": "precious"}\n')
        assert main(["nope", "--trace", str(trace)]) == 2
        assert trace.read_text() == '{"ts": 0.0, "kind": "precious"}\n'
        assert not list(tmp_path.glob(".trace-*"))

    def test_preexisting_trace_survives_crash(self, tmp_path, monkeypatch):
        trace = tmp_path / "t.jsonl"
        trace.write_text("precious\n")

        def boom(args, config):
            raise RuntimeError("campaign exploded")

        monkeypatch.setitem(EXPERIMENTS, "fig13", Experiment("x", boom))
        with pytest.raises(RuntimeError):
            main(["fig13", "--trace", str(trace)])
        assert trace.read_text() == "precious\n"
        assert not list(tmp_path.glob(".trace-*"))


class TestTraceReport:
    def test_summarises_fixture_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rows = [
            {"ts": 1.0, "kind": "request", "latency": 0.25, "op": "read"},
            {"ts": 5.0, "kind": "recovery", "latency": 2.0, "stripe": 3, "block": 1},
            {"ts": 6.0, "kind": "adapt", "stripe": 3, "target": "msr"},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "3 events" in out
        assert "recovery" in out and "slowest repairs" in out

    def test_usage_error(self, capsys):
        assert main(["trace-report"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot analyze trace" in capsys.readouterr().err

    def test_corrupt_file_names_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"ts": 1.0, "kind": "x"}\nnot json\n')
        assert main(["trace-report", str(trace)]) == 2
        assert "2" in capsys.readouterr().err


class TestReportFlag:
    def test_report_schema_series_and_spans(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        # distinct config so the memoised campaign cache can't serve a
        # previous test's run with telemetry switched off
        assert main(["stats", "--requests", "37", "--stripes", "9",
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.report/v1"
        assert doc["experiments"] == ["stats"]
        assert doc["config"]["num_requests"] == 37
        assert doc["metrics"]  # aggregates present
        fields = set()
        for series in doc["snapshots"]:
            assert len(series["ts"]) >= 1
            fields |= set(series["fields"])
        assert {"msr_share", "queue1_occupancy"} <= fields
        assert doc["spans"]["aggregates"]["recovery"]["p99"] >= 0.0
        assert doc["spans"]["aggregates"]["request"]["count"] > 0

    def test_unwritable_report_fails_fast(self, tmp_path, capsys):
        assert main(["fig13", "--report", str(tmp_path / "no" / "r.json")]) == 2
        assert "cannot write report file" in capsys.readouterr().err


class TestMainModule:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fig13", "--k", "8"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        assert "Fig. 13" in proc.stdout


class TestServeCommand:
    ARGS = ["serve", "--target-ops", "120", "--duration", "2", "--objects", "16"]

    def test_serve_runs_and_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "serving" in out.lower() or "ops" in out.lower()

    def test_serve_report_has_slo_section(self, tmp_path):
        report = tmp_path / "serve.json"
        assert main(self.ARGS + ["--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.report/v1"
        assert doc["experiments"] == ["serve"]
        serving = doc["serving"]
        assert serving["offered"] > 0
        for op in ("get", "put", "degraded_read"):
            for stat in ("p50", "p99", "p999"):
                assert stat in serving["latency"][op]
        assert doc["config"]["workload"]["target_ops"] == 120.0
        assert doc["config"]["server"]["scheme"] == "EC-Fusion"

    def test_serve_report_is_deterministic(self, tmp_path):
        r1 = tmp_path / "a.json"
        r2 = tmp_path / "b.json"
        args = self.ARGS + ["--chaos-profile", "storm", "--seed", "5"]
        assert main(args + ["--report", str(r1)]) == 0
        telemetry.disable()
        telemetry.reset()
        assert main(args + ["--report", str(r2)]) == 0
        assert r1.read_text() == r2.read_text()

    def test_serve_with_storm_counts_degraded_reads(self, tmp_path):
        report = tmp_path / "storm.json"
        assert main(self.ARGS + ["--chaos-profile", "storm", "--duration", "4",
                                 "--report", str(report)]) == 0
        serving = json.loads(report.read_text())["serving"]
        assert serving["chaos"]["profile"] == "storm"
        assert serving["counts"]["chunk_failures"] > 0

    def test_serve_refuses_to_share_the_run(self, capsys):
        assert main(["serve", "fig13"]) == 2
        assert "serve" in capsys.readouterr().err

    def test_serve_rejects_bad_config(self, capsys):
        assert main(["serve", "--scheme", "HACFS", "--read-fraction", "2.0"]) == 2

    def test_serve_unwritable_report_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "no" / "r.json"
        assert main(self.ARGS + ["--report", str(bad)]) == 2
        assert "cannot write report file" in capsys.readouterr().err


class TestDurabilityCommand:
    ARGS = ["durability", "--stripes", "300", "--years", "3", "--seed", "4"]

    def test_runs_and_prints_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Durability" in out
        for scheme in ("rs", "msr", "ecfusion"):
            assert scheme in out

    def test_report_has_durability_section(self, tmp_path):
        report = tmp_path / "dur.json"
        args = self.ARGS + ["--topology", "geo", "--report", str(report)]
        assert main(args) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.report/v1"
        assert doc["experiments"] == ["durability"]
        section = doc["durability"]
        assert section["topology"]["name"] == "geo"
        assert [s["scheme"] for s in section["schemes"]] == ["rs", "msr", "ecfusion"]
        for entry in section["schemes"]:
            assert "mttdl_ci_hours" in entry and "pdl_ci" in entry
            assert entry["analytic_mttdl_hours"] > 0

    def test_scheme_subset(self, tmp_path):
        report = tmp_path / "dur.json"
        args = self.ARGS + ["--schemes", "rs", "ecfusion", "--report", str(report)]
        assert main(args) == 0
        section = json.loads(report.read_text())["durability"]
        assert [s["scheme"] for s in section["schemes"]] == ["rs", "ecfusion"]

    def test_jobs_flag_byte_identical(self, tmp_path):
        r1 = tmp_path / "a.json"
        r2 = tmp_path / "b.json"
        args = self.ARGS + ["--topology", "geo"]
        assert main(args + ["--report", str(r1)]) == 0
        assert main(args + ["--jobs", "2", "--report", str(r2)]) == 0
        assert r1.read_text() == r2.read_text()

    def test_refuses_to_share_the_run(self, capsys):
        assert main(["durability", "fig13"]) == 2
        assert "durability" in capsys.readouterr().err

    def test_rejects_bad_jobs(self, capsys):
        assert main(self.ARGS + ["--jobs", "0"]) == 2

    def test_unwritable_report_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "no" / "r.json"
        assert main(self.ARGS + ["--report", str(bad)]) == 2
        assert "cannot write report file" in capsys.readouterr().err


class _Spied(Exception):
    """Raised by a spy once it has seen the campaign's configuration."""


class TestWorkloadFlags:
    """A flag always wins over an experiment's own sizing."""

    @pytest.mark.parametrize(
        "name, target, sizing",
        [
            ("lifetime", "repro.experiments.lifetime.build_schemes", (120, 32)),
            ("sensitivity", "repro.experiments.simulation.campaign_tasks", (300, 48)),
            ("robustness", "repro.experiments.simulation.campaign_tasks", (300, 48)),
            ("chaos", "repro.experiments.simulation.campaign_tasks", (300, 48)),
        ],
    )
    def test_flags_reach_the_campaign(self, monkeypatch, name, target, sizing):
        seen = []

        def spy(config, *rest):
            seen.append((config.num_requests, config.num_stripes))
            raise _Spied

        monkeypatch.setattr(target, spy)
        monkeypatch.setattr("repro.experiments.simulation._CACHE", {})
        with pytest.raises(_Spied):
            main([name, "--requests", "400", "--stripes", "60", "--seed", "3"])
        with pytest.raises(_Spied):
            main([name])
        assert seen == [(400, 60), sizing]

    def test_report_config_is_what_ran(self, tmp_path, monkeypatch):
        ran = []

        def record(args, config):
            ran.append(config)
            return "", {}

        monkeypatch.setitem(
            EXPERIMENTS, "fig13", Experiment("x", record, {"num_requests": 11})
        )
        monkeypatch.setitem(EXPERIMENTS, "fig14", Experiment("y", record))
        report = tmp_path / "r.json"
        assert main(["fig13", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["config"]["num_requests"] == 11
        assert main(["fig13", "fig14", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["config"]["num_requests"] == 600
        assert [c.num_requests for c in ran] == [11, 11, 600]
