"""Tests for the command-line interface."""

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fir"])
        assert args.experiment == "fir"
        assert args.scale == 0.125
        assert args.link == "gen4"
        assert args.csv is None

    def test_bad_link_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fir", "--link", "gen5"])


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


class TestRun:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_micro_experiment_prints_tables(self, capsys):
        assert main(["run", "fir", "--scale", "0.03125"]) == 0
        out = capsys.readouterr().out
        assert "UVM-opt" in out
        assert "UvmDiscard" in out
        assert "<100%" in out and "400%" in out

    def test_csv_export(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert main(
            ["run", "hashjoin", "--scale", "0.03125", "--csv", str(target)]
        ) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("system,config,")
        assert len(lines) == 1 + 4 * 3  # header + ratios x systems

    def test_dl_experiment(self, capsys):
        assert main(["run", "dl:rnn", "--scale", "0.03125"]) == 0
        out = capsys.readouterr().out
        assert "RNN" in out

    def test_pcie3_option(self, capsys):
        assert main(["run", "fir", "--scale", "0.03125", "--link", "gen3"]) == 0


class TestReproduce:
    def test_writes_markdown_report(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        # One micro + one DL experiment at minimal scale keeps this fast;
        # monkeypatch the experiment list down.
        import repro.cli as cli

        original = dict(cli.EXPERIMENTS)
        try:
            cli.EXPERIMENTS.clear()
            cli.EXPERIMENTS["fir"] = original["fir"]
            assert main(
                ["reproduce", "--scale", "0.03125", "--output", str(target)]
            ) == 0
        finally:
            cli.EXPERIMENTS.clear()
            cli.EXPERIMENTS.update(original)
        text = target.read_text()
        assert text.startswith("# UVM Discard reproduction report")
        assert "| UVM-opt |" in text
        assert "speedup" in text


class TestDemo:
    def test_demo_verifies_result(self, capsys):
        assert main(["demo"]) == 0
        assert "result OK" in capsys.readouterr().out


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8731
        assert args.workers == 2
        assert args.executor == "process"
        assert args.blob_dir is None
        assert args.queue_limit == 256
        assert args.rate == 0.0
        assert args.no_cache is False
        assert args.drain_seconds == 10.0

    def test_overrides(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--workers", "5",
                "--executor", "thread",
                "--blob-dir", "blobs",
                "--queue-limit", "7",
                "--rate", "3.5",
                "--no-cache",
            ]
        )
        assert args.port == 0
        assert args.workers == 5
        assert args.executor == "thread"
        assert args.blob_dir == "blobs"
        assert args.queue_limit == 7
        assert args.rate == 3.5
        assert args.no_cache is True

    def test_bad_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "fiber"])

    def test_invalid_spec_exits_2(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "bad serve spec" in capsys.readouterr().err

    def test_bad_bind_address_exits_2(self, capsys):
        assert main(["serve", "--host", "203.0.113.1", "--no-cache"]) == 2
        assert "cannot serve" in capsys.readouterr().err


class TestLoadgenParser:
    def test_defaults(self):
        args = build_parser().parse_args(["loadgen", "--url", "http://x:1"])
        assert args.url == "http://x:1"
        assert args.requests == 100
        assert args.clients == 8
        assert args.duplicates == 0.5
        assert args.seed == 0
        assert args.verify_identity == 0
        assert args.report is None

    def test_url_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen"])

    def test_unreachable_server_exits_2(self, capsys):
        assert main(
            ["loadgen", "--url", "http://127.0.0.1:9", "--requests", "1",
             "--clients", "1", "--timeout", "1"]
        ) in (1, 2)


class TestServeSubprocess:
    """The full `python -m repro serve` contract: announce line,
    malformed-request 400s, SIGTERM -> graceful exit 0."""

    @pytest.fixture()
    def server_process(self):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--executor", "thread",
                "--workers", "1",
                "--no-cache",
                "--drain-seconds", "5",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            announce = process.stdout.readline()
            yield process, announce
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)

    @staticmethod
    def _port(announce):
        assert announce.startswith("serving on http://127.0.0.1:"), announce
        return int(announce.split("http://127.0.0.1:")[1].split()[0])

    def _post(self, port, path, body):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            connection.close()

    def test_serves_then_drains_cleanly_on_sigterm(self, server_process):
        process, announce = server_process
        port = self._port(announce)
        assert "cache off" in announce and "thread x1" in announce

        # Malformed requests are 400s, not crashes.
        status, payload = self._post(port, "/run", b"{not json")
        assert status == 400
        assert "error" in payload
        status, payload = self._post(port, "/run", json.dumps({}).encode())
        assert status == 400

        # A real point round-trips through the worker pool.
        status, payload = self._post(
            port,
            "/run",
            json.dumps(
                {"point": {"workload": "fir", "system": "UvmDiscard",
                           "ratio": 2.0, "scale": 0.03125}}
            ).encode(),
        )
        assert status == 200
        assert payload["provenance"] == "run"
        assert payload["outcome"]["status"] == "ok"

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0

    def test_sigint_also_exits_zero(self, server_process):
        process, announce = server_process
        self._port(announce)  # wait until bound
        time.sleep(0.1)
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0


class TestFastMode:
    def test_run_fast_prints_full_tables(self, capsys):
        assert main(["run", "fir", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "UvmDiscard" in out
        assert "<100%" in out and "400%" in out

    def test_run_fast_rejects_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["run", "fir", "--fast", "--trace", str(trace)]) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_run_fast_uncalibrated_scale_exits_2(self, capsys):
        assert main(["run", "fir", "--fast", "--scale", "0.017"]) == 2
        assert "fast model unavailable" in capsys.readouterr().err

    def test_sweep_fast_labels_points(self, tmp_path, capsys):
        assert main([
            "sweep",
            "--workloads", "fir",
            "--systems", "UvmDiscard",
            "--ratios", "2.0,2.25",
            "--fast",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "+fast" in out


def _engine_churn_baseline(tmp_path, wall_seconds):
    """A one-benchmark baseline file claiming ``wall_seconds``."""
    from repro.harness.perf import results_to_json

    path = tmp_path / f"baseline-{wall_seconds:g}.json"
    path.write_text(
        results_to_json({"engine_churn": {"wall_seconds": wall_seconds}}, 1)
    )
    return str(path)


class TestProfileCompare:
    # The baselines are written here, far above or below any real run,
    # so the outcome does not depend on how fast this host is.

    def test_compare_prints_delta_table(self, tmp_path, capsys):
        assert main([
            "profile",
            "--benchmarks", "engine_churn",
            "--repeat", "1",
            "--output", "",
            "--compare", _engine_churn_baseline(tmp_path, 1000.0),
        ]) == 0
        captured = capsys.readouterr()
        assert "vs baseline" in captured.out
        assert "engine_churn" in captured.out
        assert "speedup" in captured.out
        assert "PERF REGRESSION" not in captured.err

    def test_compare_regression_exits_1(self, tmp_path, capsys):
        assert main([
            "profile",
            "--benchmarks", "engine_churn",
            "--repeat", "1",
            "--output", "",
            "--compare", _engine_churn_baseline(tmp_path, 1e-6),
        ]) == 1
        captured = capsys.readouterr()
        assert "speedup" in captured.out  # the table still prints
        assert "PERF REGRESSION: engine_churn" in captured.err

    def test_compare_bad_baseline_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "nope.json"
        assert main([
            "profile",
            "--benchmarks", "engine_churn",
            "--repeat", "1",
            "--output", "",
            "--compare", str(bogus),
        ]) == 2
        assert "bad baseline" in capsys.readouterr().err


class TestChaosWorkloadListing:
    """The --workloads error is a contract: it must name every catalog
    entry so the listing can never drift from ``CHAOS_WORKLOADS``."""

    def test_unknown_workload_lists_full_catalog(self, capsys):
        from repro.chaos.catalog import CHAOS_WORKLOADS

        assert main(["chaos", "--workloads", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown chaos workloads ['bogus']" in err
        for name in CHAOS_WORKLOADS:
            assert name in err, f"{name} missing from the catalog listing"

    def test_new_categories_are_selectable(self):
        args = build_parser().parse_args(
            ["chaos", "--workloads", "bfs,kmeans,knn,stencil,reduction"]
        )
        assert args.workloads == "bfs,kmeans,knn,stencil,reduction"


class TestExplain:
    def test_defaults(self):
        args = build_parser().parse_args(["explain", "reduction"])
        assert args.experiment == "reduction"
        assert args.system == "UVM-opt"
        assert args.diff is None
        assert not args.check and not args.json

    def test_needs_experiment_or_diff(self, capsys):
        assert main(["explain"]) == 2
        assert "needs an experiment" in capsys.readouterr().err

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["explain", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_and_diff(self, tmp_path, capsys):
        run_a = tmp_path / "a.json"
        run_b = tmp_path / "b.json"
        common = ["--scale", "0.03125", "--link", "gen3"]
        assert main(
            ["explain", "reduction", *common, "--out", str(run_a)]
        ) == 0
        out = capsys.readouterr().out
        assert "per-buffer attribution" in out
        assert "missed discard opportunit" in out
        assert main(
            ["explain", "reduction", *common, "--system", "UvmDiscardLazy",
             "--json", "--out", str(run_b)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attribution"]["complete"] is True
        assert json.loads(run_b.read_text()) == payload

        assert main(["explain", "--diff", str(run_a), str(run_b)]) == 0
        out = capsys.readouterr().out
        assert "diff: reduction/UVM-opt -> reduction/UvmDiscardLazy" in out

    def test_check_passes_on_reduction(self, capsys):
        assert main(
            ["explain", "reduction", "--scale", "0.03125", "--link", "gen3",
             "--system", "UvmDiscard", "--check"]
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_diff_with_missing_file_exits_2(self, tmp_path, capsys):
        assert main(
            ["explain", "--diff", str(tmp_path / "a.json"),
             str(tmp_path / "b.json")]
        ) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_out_into_a_missing_directory_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.analysis.explain as explain

        def not_simulated(point):
            raise AssertionError("simulated before refusing --out")

        monkeypatch.setattr(explain, "explain_point", not_simulated)
        out = tmp_path / "missing" / "a.json"
        assert main(
            ["explain", "reduction", "--scale", "0.03125", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out}")
        assert len(err.splitlines()) == 1
        assert not out.parent.exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # A directory in the way: the write itself fails after the run.
        out = tmp_path / "a.json"
        out.mkdir()
        assert main(
            ["explain", "reduction", "--scale", "0.03125", "--link", "gen3",
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out}")
        assert len(err.splitlines()) == 1


class TestTraceOutputs:
    """``repro trace`` checks both output paths before it simulates."""

    @pytest.fixture
    def not_simulated(self, monkeypatch):
        import repro.harness.tracerun as tracerun

        def refuse(*args, **kwargs):
            raise AssertionError("simulated before refusing an output path")

        monkeypatch.setattr(tracerun, "trace_point", refuse)

    @pytest.mark.parametrize("flag", ["--out", "--metrics-csv"])
    def test_output_into_a_missing_directory_exits_2(
        self, flag, tmp_path, capsys, not_simulated
    ):
        path = tmp_path / "missing" / "dir" / "t.out"
        assert main(
            ["trace", "stencil", "--scale", "0.03125",
             "--out", str(tmp_path / "t.json"), flag, str(path)]
        ) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write {path}: no directory {path.parent}\n"
        assert not (tmp_path / "missing").exists()

    def test_unwritable_metrics_csv_exits_2(self, tmp_path, capsys):
        # A directory in the way: the write itself fails after the run.
        csv_path = tmp_path / "m.csv"
        csv_path.mkdir()
        assert main(
            ["trace", "fir", "--scale", "0.01", "--out",
             str(tmp_path / "t.json"), "--metrics-csv", str(csv_path)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {csv_path}: ")
        assert len(err.splitlines()) == 1


class TestOutputPaths:
    """Every command that writes a file checks the file's directory
    before any work: a missing one is one stderr line and exit 2."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import repro.chaos
        import repro.cli as cli
        import repro.harness.perf as perf
        import repro.serve.loadgen as loadgen

        def refuse(*args, **kwargs):
            raise AssertionError("worked before refusing an output path")

        monkeypatch.setattr(cli, "_execute_points", refuse)
        monkeypatch.setattr(cli, "run_sweep", refuse)
        monkeypatch.setattr(perf, "run_benchmarks", refuse)
        monkeypatch.setattr(loadgen, "run_load", refuse)
        monkeypatch.setattr(repro.chaos, "run_chaos_suite", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fir", "--scale", "0.01", "--csv"],
            ["run", "fir", "--scale", "0.01", "--trace"],
            ["sweep", "--workloads", "fir", "--scale", "0.01", "--no-cache",
             "--csv"],
            ["reproduce", "--scale", "0.01", "--output"],
            ["profile", "--output"],
            ["loadgen", "--url", "http://127.0.0.1:9", "--report"],
            ["chaos", "--trace"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )
    def test_missing_directory_exits_2_before_any_work(
        self, argv, tmp_path, capsys, no_work
    ):
        path = tmp_path / "missing" / "dir" / "out"
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write {path}: no directory {path.parent}\n"
        assert not (tmp_path / "missing").exists()

    def test_unwritable_run_csv_exits_2(self, tmp_path, capsys):
        # A directory in the way: the write itself fails after the run.
        csv_path = tmp_path / "rows.csv"
        csv_path.mkdir()
        assert main(
            ["run", "fir", "--scale", "0.01", "--csv", str(csv_path)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {csv_path}: ")
        assert len(err.splitlines()) == 1


class TestClosedStdout:
    """A reader that goes away (``repro ... | head -1``) ends the command
    with exit 1 and nothing on stderr, never a BrokenPipeError
    traceback."""

    def test_closed_pipe_after_one_line(self, tmp_path):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The report is about 97 KB in one print, more than a pipe
        # holds, so the write cannot finish once the reader is gone.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "explain", "fig5-rnn",
             "--scale", "0.03125", "--json"],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert process.stdout.readline() == b"{\n"
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=60) == 1
        assert err == b""


class TestReplay:
    @pytest.fixture(scope="class")
    def export(self, tmp_path_factory):
        """A Chrome export of a small traced point, as 'repro trace'
        would write it."""
        from repro.harness.sweep import SweepPoint
        from repro.harness.tracerun import trace_point

        point = SweepPoint(
            workload="fir", system="UvmDiscard", ratio=2.0, scale=0.01
        )
        _, tracer = trace_point(point)
        path = tmp_path_factory.mktemp("replay") / "export.json"
        path.write_text(json.dumps(tracer.to_chrome_trace()))
        return path

    def test_defaults(self):
        args = build_parser().parse_args(["replay", "t.json"])
        assert args.trace == "t.json"
        assert args.convert is None
        assert not args.check and not args.per_buffer and not args.json

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_convert_then_check_round_trips(self, export, tmp_path, capsys):
        csv_path = tmp_path / "replay.csv"
        assert main(["replay", str(export), "--convert", str(csv_path)]) == 0
        assert "wrote replay trace" in capsys.readouterr().out

        assert main(["replay", str(csv_path), "--check", "--per-buffer"]) == 0
        out = capsys.readouterr().out
        assert "recorded totals: MATCH" in out
        assert "fir_input" in out  # per-buffer lines present

    def test_json_output_reports_check(self, export, capsys):
        assert main(["replay", str(export), "--json", "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["check"]["checked"] and payload["check"]["ok"]
        assert payload["meta"]["workload"] == "fir"
        assert payload["ops"] > 0

    def test_check_without_recorded_totals_exits_2(
        self, export, tmp_path, capsys
    ):
        from repro.workloads.replay import load_replay_trace

        doc = load_replay_trace(str(export)).to_document()
        doc["meta"].pop("expected")
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        assert main(["replay", str(bare), "--check"]) == 2
        assert "no expected totals" in capsys.readouterr().err

    def test_convert_into_a_missing_directory_exits_2(
        self, export, tmp_path, capsys, monkeypatch
    ):
        import repro.workloads.replay as replay

        def not_converted(trace):
            raise AssertionError("converted before refusing --convert")

        monkeypatch.setattr(replay, "replay_trace_to_csv", not_converted)
        out = tmp_path / "missing" / "dir" / "r.csv"
        assert main(["replay", str(export), "--convert", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write {out}: no directory {out.parent}\n"
        assert not (tmp_path / "missing").exists()

    def test_unwritable_convert_exits_2(self, export, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.mkdir()
        assert main(["replay", str(export), "--convert", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out}: ")
        assert len(err.splitlines()) == 1

    def test_oom_replay_exits_2(self, export, tmp_path, capsys):
        from repro.workloads.replay import load_replay_trace

        doc = load_replay_trace(str(export)).to_document()
        doc["meta"]["ratio"] = 1e6  # an occupant that leaves no frames
        crowded = tmp_path / "crowded.json"
        crowded.write_text(json.dumps(doc))
        assert main(["replay", str(crowded)]) == 2
        assert "replay failed: UvmDiscard/200%" in capsys.readouterr().err
