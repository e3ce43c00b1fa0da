"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "axpy", "--threads", "1", "4"])
        assert args.workload == "axpy"
        assert args.threads == [1, 4]


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out and "TABLE III" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "axpy" in out and "srad" in out and "Fig. 9" in out

    def test_machine(self, capsys):
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        assert "36 physical cores" in out

    def test_figure(self, capsys):
        assert main(["figure", "axpy", "--threads", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "cilk_for" in out and "p=4" in out

    def test_figure_chart(self, capsys):
        assert main(["figure", "matmul", "--threads", "1", "2"]) == 0

    def test_figure_unknown_workload_exits_2(self, capsys):
        assert main(["figure", "nbody"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nbody" in err

    def test_compare_unknown_model_exits_2(self, capsys):
        assert main(["compare", "openmp", "no-such-model"]) == 2
        assert "no-such-model" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "openmp", "cilk", "tbb"]) == 0
        out = capsys.readouterr().out
        assert "OpenMP" in out and "TBB" in out

    def test_microbench(self, capsys):
        assert main(["microbench", "--threads", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "barrier" in out

    def test_offload(self, capsys):
        assert main(["offload", "--n", "1000000", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "host" in out


class TestTraceCommand:
    def test_trace_args(self):
        args = build_parser().parse_args(["trace", "fib", "-m", "cilk", "-p", "8"])
        assert args.workload == "fib" and args.model == "cilk" and args.threads == 8

    def test_trace_smoke_writes_chrome_json(self, capsys, tmp_path):
        """Acceptance: `repro trace fib --model cilk --threads 16 --out t.json`
        writes Chrome-trace JSON with >= 1 span per worker, creating the
        missing output directory."""
        out = tmp_path / "no" / "such" / "dir" / "t.json"
        code = main(
            ["trace", "fib", "--model", "cilk", "--threads", "16", "--out", str(out)]
        )
        assert code == 0
        assert "bottleneck attribution" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        exec_kinds = {"task", "chunk", "serial", "kernel", "transfer"}
        workers = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("cat") in exec_kinds
        }
        assert workers == set(range(16))

    def test_trace_metrics_and_gantt(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        code = main(
            ["trace", "matmul", "-m", "omp", "-p", "4", "--gantt",
             "--metrics-out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "w0" in printed  # the gantt rows
        doc = json.loads(out.read_text())
        assert doc["version"] == "omp_for" and doc["nthreads"] == 4

    def test_trace_model_prefix_resolution(self, capsys):
        assert main(["trace", "fib", "-m", "omp", "-p", "2"]) == 0
        assert "omp_task" in capsys.readouterr().out

    def test_trace_unknown_workload_exits_2(self, capsys):
        assert main(["trace", "nbody", "-m", "omp"]) == 2
        assert "nbody" in capsys.readouterr().err

    def test_trace_unknown_model_exits_2(self, capsys):
        assert main(["trace", "fib", "-m", "rayon"]) == 2
        err = capsys.readouterr().err
        assert "rayon" in err and "cilk_spawn" in err

    def test_trace_thread_explosion_exits_1(self, capsys):
        # fib's cxx_async at default size exceeds the thread cap: the
        # paper's reproduced "system hangs", reported as failure not crash
        assert main(["trace", "fib", "-m", "cxx", "-p", "16"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFigureOut:
    def test_figure_out_creates_directories(self, capsys, tmp_path):
        out = tmp_path / "fresh" / "figs" / "axpy.txt"
        assert main(["figure", "axpy", "--threads", "1", "2", "--out", str(out)]) == 0
        assert out.exists() and "p=2" in out.read_text()


class TestSweepCommand:
    def test_sweep_fidelity_args(self):
        args = build_parser().parse_args(["sweep", "axpy", "--fidelity", "auto"])
        assert args.fidelity == "auto"
        assert build_parser().parse_args(["sweep", "axpy"]).fidelity == "2"

    def test_sweep_rejects_unknown_fidelity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "axpy", "--fidelity", "3"])

    def test_sweep_tier0_estimates_every_cell(self, capsys, tmp_path):
        """`repro sweep --fidelity 0` estimates every cell, simulates
        none, and says so in both the summary line and the metrics."""
        metrics = tmp_path / "m.json"
        code = main([
            "sweep", "axpy", "--threads", "1", "4", "--quiet",
            "--cache-dir", str(tmp_path / "cache"), "--fidelity", "0",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fidelity=0" in out and "simulated=0" in out
        counters = json.load(metrics.open())["metrics"]["counters"]
        assert counters["estimates"] == counters["sweep_cells"] > 0
        assert counters["simulations"] == 0

    def test_sweep_fidelity_auto_picks_the_analytic_tier(self, capsys):
        """A plain sweep needs no events, so `auto` resolves to tier 0."""
        code = main([
            "sweep", "axpy", "--threads", "1", "--quiet", "--no-cache",
            "--fidelity", "auto",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fidelity=auto" in out and "simulated=0" in out
        assert "estimated=0" not in out

    def test_sweep_default_is_the_reference_tier(self, capsys, tmp_path):
        code = main([
            "sweep", "axpy", "--threads", "1", "--quiet",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fidelity=2" in out and "estimated=0" in out


class TestValidateCommand:
    def test_validate_args(self):
        args = build_parser().parse_args(["validate", "--deep", "--seed", "7"])
        assert args.deep is True and args.seed == 7 and args.programs is None

    def test_validate_runs_clean(self, capsys):
        assert main(["validate", "--programs", "1"]) == 0
        out = capsys.readouterr().out
        assert "OK:" in out and "invariant checks passed" in out

    def test_validate_custom_seed(self, capsys):
        assert main(["validate", "--programs", "1", "--seed", "123"]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_validate_unknown_inject_spec_exits_2(self, capsys):
        assert main(["validate", "--programs", "1", "--inject", "explode:task=1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_validate_malformed_inject_spec_exits_2(self, capsys):
        assert main(["validate", "--programs", "1", "--inject", "fail:frob=1"]) == 2
        assert "unknown fault argument" in capsys.readouterr().err

    def test_validate_model_filter_runs_clean(self, capsys):
        assert main(["validate", "--programs", "1", "--model", "mpi"]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_validate_unknown_model_exits_2(self, capsys):
        assert main(["validate", "--programs", "1", "--model", "corba"]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'corba'" in err and "charm" in err

    def test_validate_unknown_model_exits_2_before_running(self, capsys):
        # resolver failure is a usage error: no battery output, just the
        # error line on stderr
        assert main(["validate", "--model", "charm+++"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown model" in captured.err


class TestFaultsCommand:
    def test_faults_reports_degradation(self, capsys):
        assert main(["faults", "fib", "-m", "cilk", "--inject", "fail:task=5"]) == 0
        out = capsys.readouterr().out
        assert "fault summary:" in out
        assert "wasted_seconds" in out
        assert "error mode: poison" in out

    def test_faults_strict_exits_1(self, capsys):
        assert main(
            ["faults", "fib", "-m", "cilk", "--inject", "fail:task=5", "--strict"]
        ) == 1
        assert "injected fault" in capsys.readouterr().err

    def test_faults_retry_recovers_under_strict(self, capsys):
        assert main(
            ["faults", "fib", "-m", "cilk", "--inject", "fail:task=5,attempts=1",
             "--retries", "1", "--backoff", "1e-6", "--strict"]
        ) == 0
        assert "retries              1" in capsys.readouterr().out

    def test_faults_unknown_spec_exits_2(self, capsys):
        assert main(["faults", "fib", "-m", "cilk", "--inject", "explode:x=1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_faults_unknown_workload_exits_2(self, capsys):
        assert main(["faults", "nope", "-m", "cilk"]) == 2
        assert "error" in capsys.readouterr().err

    def test_faults_unknown_model_exits_2(self, capsys):
        assert main(["faults", "fib", "-m", "fortran"]) == 2

    def test_faults_requires_workload_and_model(self, capsys):
        assert main(["faults"]) == 2
        assert "requires a workload" in capsys.readouterr().err

    def test_faults_list_demos(self, capsys):
        assert main(["faults", "--list-demos"]) == 0
        out = capsys.readouterr().out
        for name in ("OpenMP", "TBB", "C++11", "PThreads", "OpenCL",
                     "CUDA", "OpenACC", "Cilk Plus"):
            assert name in out

    def test_faults_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "f" / "faults.json"
        assert main(
            ["faults", "fib", "-m", "cilk", "--inject", "fail:task=5",
             "--metrics-out", str(out)]
        ) == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["summary"]["wasted_seconds"] > 0
        assert doc["metrics"]["gauges"]["wasted_work_seconds"] > 0
        assert doc["inject"] == "fail:task=5"


class TestSynthCommand:
    ARGS = ["synth", "--seed", "7", "--count", "2", "--threads", "1", "4"]

    def test_synth_stdout_is_deterministic(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first
        assert "spec-digest" in first and "batch-digest" in first

    def test_synth_seed_changes_digests(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(["synth", "--seed", "8", "--count", "2",
                     "--threads", "1", "4"]) == 0
        second = capsys.readouterr().out
        digests = lambda out: [  # noqa: E731
            line for line in out.splitlines() if "spec-digest" in line
        ]
        assert set(digests(first)).isdisjoint(digests(second))

    def test_synth_run_prints_simulated_times(self, capsys):
        assert main(self.ARGS + ["--run"]) == 0
        out = capsys.readouterr().out
        assert "p1=" in out and "p4=" in out

    def test_synth_run_tier2_matches_fidelity_flag(self, capsys):
        assert main(self.ARGS + ["--run", "--fidelity", "2"]) == 0
        assert "fidelity=2" in capsys.readouterr().out

    def test_synth_validate_clean_exit(self, capsys):
        assert main(self.ARGS + ["--validate"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_synth_json_manifest(self, tmp_path, capsys):
        import json

        out = tmp_path / "m" / "manifest.json"
        assert main(self.ARGS + ["--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 7 and len(doc["workloads"]) == 2
        assert doc["batch_digest"]
        for spec in doc["workloads"]:
            assert spec["spec"]["name"].startswith("synth-")
            assert spec["spec"]["recipe"]
            assert spec["cache_keys"]

    def test_synth_does_not_leak_registry_names(self):
        from repro.core.registry import WORKLOADS

        before = set(WORKLOADS)
        assert main(self.ARGS) == 0
        assert set(WORKLOADS) == before


class TestServeCommand:
    """`repro serve` wiring and `repro sweep --server` routing."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.jobs == 2
        assert args.cache_dir is None
        assert args.cache_max_entries is None
        assert args.ttl is None

    def test_serve_parser_full(self, tmp_path):
        args = build_parser().parse_args([
            "serve", "--host", "0.0.0.0", "--port", "9000", "-j", "4",
            "--cache-dir", str(tmp_path), "--cache-max-entries", "100",
            "--ttl", "3600", "--quiet",
        ])
        assert args.port == 9000 and args.jobs == 4
        assert args.cache_max_entries == 100 and args.ttl == 3600.0
        assert args.quiet

    def test_sweep_server_flag_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "axpy", "--server", "http://127.0.0.1:1234"]
        )
        assert args.server == "http://127.0.0.1:1234"
        assert build_parser().parse_args(["sweep", "axpy"]).server is None

    def test_sweep_through_live_server(self, capsys, tmp_path, monkeypatch):
        """End-to-end `repro sweep --server URL`: the cells resolve on
        the service (tier-0 estimates — microseconds), the summary names
        the server instead of a local cache, and no local store is
        touched."""
        monkeypatch.delenv("REPRO_SWEEP_SERVER", raising=False)
        from tests.test_serve import running_server

        with running_server(tmp_path / "store") as srv:
            code = main([
                "sweep", "axpy", "--threads", "1", "4", "--quiet",
                "--fidelity", "0", "--server", srv.url,
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert f"server: {srv.url}" in out
            assert "simulated=0" in out
            assert srv.perf.counters["serve.request"] == 1
            assert srv.perf.counters["serve.estimates"] > 0
        # the server's store holds the entries; no default-dir cache line
        assert "cache:" not in out
