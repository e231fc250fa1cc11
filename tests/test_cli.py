"""Tests for the ``repro-seu`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_subcommand(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.id == "fig3"
        assert args.profile == "fast"

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.app == "mpeg2"
        assert args.cores == 4
        assert args.levels == 3

    def test_inject_defaults(self):
        args = build_parser().parse_args(["inject"])
        assert args.cores == 4
        assert args.runs == 20

    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_optimize_mpeg2(self, capsys):
        code = main(
            ["optimize", "--app", "mpeg2", "--cores", "4", "--iterations", "150"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "design:" in captured.out
        assert "core 1" in captured.out

    def test_optimize_random(self, capsys):
        code = main(
            [
                "optimize",
                "--app",
                "random",
                "--tasks",
                "10",
                "--cores",
                "2",
                "--iterations",
                "100",
            ]
        )
        assert code == 0
        assert "random-10" in capsys.readouterr().out

    def test_inject(self, capsys):
        code = main(["inject", "--runs", "3", "--scaling", "2,2,3,2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "expected SEUs" in captured.out
        assert "injected SEUs" in captured.out

    def test_experiment_fig3(self, capsys):
        # fig3 is the one experiment cheap enough for a CLI smoke test.
        code = main(["experiment", "fig3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "shape checks" in captured.out
        assert "[PASS]" in captured.out


class TestParallelFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.exec_plan is None
        assert args.max_workers is None
        assert args.restarts is None

    def test_profile_plumbing(self):
        from repro.cli import _profile_from

        args = build_parser().parse_args(
            [
                "experiment",
                "table3",
                "--exec-plan",
                "dag:thread",
                "--max-workers",
                "3",
                "--restarts",
                "2",
            ]
        )
        profile = _profile_from(args)
        assert profile.exec_plan == "dag:thread"
        assert profile.exec_max_workers == 3
        assert profile.sa_restarts == 2

    def test_deprecated_flags_warn_by_name(self, capsys):
        # The per-cut pool flags are gone; argparse names the one used.
        for flag in ("--backend", "--experiment-backend", "--restart-backend"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["experiment", "fig3", flag, "thread"])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_serial_flags_leave_profile_defaults(self):
        from repro.cli import _profile_from
        from repro.experiments import ExperimentProfile

        args = build_parser().parse_args(["experiment", "fig3"])
        assert _profile_from(args) == ExperimentProfile.fast()

    def test_percut_plan_is_the_serial_alias(self):
        from repro.cli import _profile_from

        args = build_parser().parse_args(
            ["experiment", "fig3", "--exec-plan", "percut"]
        )
        profile = _profile_from(args)
        assert profile.exec_plan == "percut"
        assert not profile.uses_dag_executor()


class TestProfileValidation:
    """Out-of-range counts are usage errors, not tracebacks mid-run."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--max-workers", "0"], "exec_max_workers must be at least 1, got 0"),
            (["--restarts", "0"], "sa_restarts must be at least 1, got 0"),
            (
                ["--max-workers", "-2", "--exec-plan", "dag:thread"],
                "exec_max_workers must be at least 1, got -2",
            ),
        ],
    )
    def test_bad_counts_exit_with_usage_error(self, argv, message):
        from repro.cli import _profile_from

        args = build_parser().parse_args(
            ["experiment", "fig11", "--profile", "smoke", *argv]
        )
        with pytest.raises(SystemExit) as excinfo:
            _profile_from(args)
        assert str(excinfo.value) == f"repro-seu: error: {message}"

    def test_main_reports_bad_count_before_running(self, capsys):
        with pytest.raises(SystemExit, match="repro-seu: error: sa_restarts"):
            main(["experiment", "fig11", "--profile", "smoke", "--restarts", "0"])
        assert capsys.readouterr().out == ""


class TestBatchEvalFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.batch_eval == 0
        assert args.screen_moves == "off"

    def test_profile_plumbing(self):
        from repro.cli import _profile_from

        args = build_parser().parse_args(
            ["experiment", "table3", "--batch-eval", "8"]
        )
        assert _profile_from(args).batch_eval == 8
        args = build_parser().parse_args(
            ["experiment", "table3", "--screen-moves", "auto"]
        )
        assert _profile_from(args).screen_moves == "auto"
        args = build_parser().parse_args(
            ["experiment", "table3", "--screen-moves", "on"]
        )
        assert _profile_from(args).screen_moves is True

    def test_conflicting_flags_fail_fast(self):
        from repro.cli import _profile_from

        args = build_parser().parse_args(
            [
                "experiment",
                "table3",
                "--batch-eval",
                "8",
                "--screen-moves",
                "auto",
            ]
        )
        with pytest.raises(SystemExit, match="mutually exclusive"):
            _profile_from(args)

    def test_negative_batch_eval_fails_fast(self):
        from repro.cli import _profile_from

        args = build_parser().parse_args(
            ["experiment", "table3", "--batch-eval", "-2"]
        )
        with pytest.raises(SystemExit, match="non-negative"):
            _profile_from(args)


class TestRunsSubcommand:
    def _populate(self, tmp_path):
        code = main(
            [
                "experiment",
                "fig3",
                "--profile",
                "smoke",
                "--store-dir",
                str(tmp_path),
            ]
        )
        assert code == 0

    def test_table_output(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["runs", "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "Run", "Status", "Done", "Failed", "Profile", "Seed", "Fingerprint",
        ]
        assert "fig3" in out and "complete" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["runs", "--store-dir", str(tmp_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document[0]["label"] == "fig3"
        assert document[0]["state"] == "complete"
        assert document[0]["cells"]["failed"] == 0

    def test_missing_store_dir_errors(self, tmp_path, capsys):
        assert main(["runs", "--store-dir", str(tmp_path / "nope")]) == 1
        assert "no such store directory" in capsys.readouterr().err

    def test_unknown_run_filter_errors(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["runs", "--store-dir", str(tmp_path), "--run", "zz"]) == 1
        assert "no run 'zz'" in capsys.readouterr().err


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve", "--store-dir", "/tmp/s"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.max_concurrency == 2
        assert args.queue_size == 64
        assert args.transport == "thread"
        assert args.exec_plan == "dag"
        assert args.func.__name__ == "_cmd_serve"

    def test_store_dir_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--store-dir",
                "/tmp/s",
                "--host",
                "0.0.0.0",
                "--port",
                "0",
                "--max-concurrency",
                "4",
                "--transport",
                "serial",
                "--exec-plan",
                "dag:thread",
            ]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.max_concurrency == 4
        assert args.transport == "serial"
        assert args.exec_plan == "dag:thread"
