"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _run_in_tmp_dir(tmp_path, monkeypatch):
    # run/predict write a .repro-metrics.json snapshot to the working
    # directory by default; keep test runs from littering the repo root.
    monkeypatch.chdir(tmp_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig4"])
        assert args.experiment == "fig4"
        assert args.scale == "quick"
        assert args.seed == 0

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--scale", "huge"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "emp-cpu" in out

    def test_list_handles_missing_docstring(self, monkeypatch, capsys):
        import types

        from repro.bench.experiments import REGISTRY

        bare = types.ModuleType("bare_experiment")  # __doc__ is None
        empty = types.ModuleType("empty_experiment")
        empty.__doc__ = "   \n  "
        monkeypatch.setitem(REGISTRY, "bare", bare)
        monkeypatch.setitem(REGISTRY, "empty", empty)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.count("(no description)") == 2

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_trace_with_csv_out(self, tmp_path, capsys):
        assert main(["run", "trace", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "TRACE" in out
        assert list(tmp_path.glob("trace_*.csv"))

    def test_synthesize_and_predict(self, tmp_path, capsys):
        assert (
            main([
                "synthesize", "--machines", "1", "--days", "14",
                "--period", "60", "--out", str(tmp_path), "--seed", "3",
            ])
            == 0
        )
        assert (tmp_path / "lab-00.npz").exists()
        capsys.readouterr()
        assert (
            main([
                "predict", "--trace", str(tmp_path / "lab-00.npz"),
                "--start-hour", "9", "--hours", "2",
            ])
            == 0
        )
        out = capsys.readouterr().out
        assert "TR:" in out and "lab-00" in out

    def test_predict_weekend(self, tmp_path, capsys):
        main([
            "synthesize", "--machines", "1", "--days", "14",
            "--period", "60", "--out", str(tmp_path),
        ])
        capsys.readouterr()
        assert (
            main([
                "predict", "--trace", str(tmp_path / "lab-00.npz"), "--weekend",
            ])
            == 0
        )
        assert "weekend" in capsys.readouterr().out

    def test_synthesize_unknown_profile(self, tmp_path, capsys):
        assert (
            main(["synthesize", "--profile", "mainframe", "--out", str(tmp_path)])
            == 2
        )
        assert "unknown profile" in capsys.readouterr().err


class _BrokenExperiment:
    """Stand-in experiment module whose run() always raises."""

    __doc__ = "always fails"

    @staticmethod
    def run(scale="quick", *, seed=0):
        raise RuntimeError("synthetic failure")


class TestFailureExit:
    def test_run_returns_nonzero_and_emits_event(self, monkeypatch, capsys):
        from repro.bench.experiments import REGISTRY
        from repro.obs.events import scoped_event_log
        from repro.obs.metrics import scoped_registry

        monkeypatch.setitem(REGISTRY, "broken", _BrokenExperiment)
        with scoped_registry() as reg, scoped_event_log() as log:
            assert main(["run", "broken"]) == 1
            err = capsys.readouterr().err
            assert "[broken FAILED]" in err
            assert "synthetic failure" in err
            events = log.events("experiment_failed")
            assert len(events) == 1
            assert events[0].fields["experiment"] == "broken"
            assert (
                reg.get("experiment_runs_total")
                .labels(experiment="broken", status="error")
                .value
                == 1.0
            )

    def test_one_failure_does_not_hide_other_experiments(self, monkeypatch, capsys):
        from repro.bench import experiments
        from repro.obs.events import scoped_event_log
        from repro.obs.metrics import scoped_registry

        registry = {"broken": _BrokenExperiment, "trace": experiments.REGISTRY["trace"]}
        monkeypatch.setattr(experiments, "REGISTRY", registry)
        with scoped_registry(), scoped_event_log():
            assert main(["run", "all"]) == 1
            out = capsys.readouterr().out
            assert "TRACE" in out  # the healthy experiment still ran


class TestMetricsSnapshot:
    def _synthesize(self, tmp_path):
        main([
            "synthesize", "--machines", "1", "--days", "14",
            "--period", "60", "--out", str(tmp_path), "--seed", "3",
        ])
        return tmp_path / "lab-00.npz"

    def test_predict_writes_snapshot(self, tmp_path, capsys):
        from repro.obs.metrics import scoped_registry

        trace = self._synthesize(tmp_path)
        snap = tmp_path / "metrics.json"
        with scoped_registry():
            assert (
                main([
                    "predict", "--trace", str(trace),
                    "--metrics-out", str(snap),
                ])
                == 0
            )
        assert snap.exists()
        state = json.loads(snap.read_text())
        assert state["version"] == 1
        names = {m["name"] for m in state["metrics"]}
        # the catalog is materialized even where nothing was recorded
        assert "tr_query_latency_seconds" in names
        assert "incremental_cache_hits_total" in names
        assert "monitor_cpu_cost_seconds_total" in names

    def test_obs_renders_snapshot_prometheus(self, tmp_path, capsys):
        from repro.obs.metrics import scoped_registry

        trace = self._synthesize(tmp_path)
        snap = tmp_path / "metrics.json"
        capsys.readouterr()
        with scoped_registry():
            main(["predict", "--trace", str(trace), "--metrics-out", str(snap)])
        capsys.readouterr()
        assert main(["obs", "--format", "prometheus", "--metrics-in", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE tr_query_latency_seconds histogram" in out
        assert 'tr_query_latency_seconds_count{path="batch"} 1' in out
        assert "incremental_cache_hits_total 0" in out
        assert "incremental_cache_misses_total 0" in out
        assert "monitor_cpu_cost_seconds_total 0" in out

    def test_obs_table_format(self, tmp_path, capsys):
        trace = self._synthesize(tmp_path)
        snap = tmp_path / "metrics.json"
        capsys.readouterr()
        from repro.obs.metrics import scoped_registry

        with scoped_registry():
            main(["predict", "--trace", str(trace), "--metrics-out", str(snap)])
        capsys.readouterr()
        assert main(["obs", "--metrics-in", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "metric" in out and "tr_query_latency_seconds" in out

    def test_obs_without_snapshot_renders_zero_catalog(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["obs", "--format", "prometheus", "--metrics-in", str(missing)]) == 0
        captured = capsys.readouterr()
        assert "no snapshot" in captured.err
        assert "tr_query_latency_seconds" in captured.out


class TestSchedAgainstServerWithoutScheduler:
    """The server refuses every scheduling op; each sched command must
    report that in one stderr line and exit 1, not raise a traceback."""

    @pytest.fixture(scope="class")
    def port(self):
        from repro.service import AvailabilityService
        from tests.serve.test_server import ServerThread

        srv = ServerThread(AvailabilityService())
        yield srv.port
        srv.stop()

    @pytest.mark.parametrize("argv", [
        ["submit", "--job", "j1", "--cpu-seconds", "60"],
        ["status"],
        ["status", "--job", "j1"],
        ["watch", "--count", "1"],
        ["drain", "lab-00"],
    ])
    def test_refusal_is_one_stderr_line(self, port, argv, capsys):
        rc = main(["sched", *argv[:1], "--port", str(port), *argv[1:]])
        assert rc == 1
        captured = capsys.readouterr()
        if argv[0] == "drain":  # prints the raw error response it got
            assert json.loads(captured.out)["error"]["type"] == "SchedulerDisabled"
        else:
            assert captured.err.count("\n") == 1
            assert "refused the request" in captured.err
            assert "SchedulerDisabled" in captured.err


class TestQueryOpsFromTheTable:
    def test_choices_are_the_ops_the_flags_can_express(self, capsys):
        from repro.cli import _query_ops

        ops = _query_ops()
        for name in ("predict", "rank", "select", "horizon", "health",
                     "register", "extend", "quality", "adapt_status",
                     "predict_batch", "fleet_scan"):
            assert name in ops
        # No flag supplies a job id, so the job-keyed ops are not offered.
        with pytest.raises(SystemExit):
            main(["query", "submit", "--port", "1"])
        assert "invalid choice" in capsys.readouterr().err

    def test_trace_ops_require_trace(self, capsys):
        assert main(["query", "extend", "--port", "1"]) == 2
        assert "--trace is required" in capsys.readouterr().err
