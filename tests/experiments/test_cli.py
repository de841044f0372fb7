"""Tests for the experiments CLI."""

import pytest

from repro.experiments.cli import (
    _parse_domains,
    build_parser,
    cluster_config_from_args,
    config_from_args,
    main,
    shard_config_from_args,
)


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_paper_and_quick_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--paper", "--quick"])

    def test_defaults_to_quick_scale(self):
        args = build_parser().parse_args(["fig5"])
        config = config_from_args(args)
        assert config.num_transactions == 250

    def test_paper_scale(self):
        args = build_parser().parse_args(["fig5", "--paper"])
        config = config_from_args(args)
        assert config.num_transactions == 1000

    def test_overrides(self):
        args = build_parser().parse_args(
            [
                "fig6",
                "--runs", "2",
                "--transactions", "50",
                "--seed", "7",
                "--processors", "4",
                "--replication", "0.6",
                "--slack-factor", "2.0",
            ]
        )
        config = config_from_args(args)
        assert config.runs == 2
        assert config.num_transactions == 50
        assert config.base_seed == 7
        assert config.num_processors == 4
        assert config.replication_rate == 0.6
        assert config.slack_factor == 2.0


class TestShardingFlags:
    def test_shard_curve_is_a_known_experiment(self):
        args = build_parser().parse_args(["shard-curve"])
        assert args.experiment == "shard-curve"

    def test_single_domains_value_overrides_any_experiment(self):
        args = build_parser().parse_args(["fig5", "--domains", "2"])
        assert config_from_args(args).domains == 2

    def test_partition_policy_reaches_the_config(self):
        args = build_parser().parse_args(
            ["fig5", "--domains", "2", "--partition-policy", "worst-fit"]
        )
        assert config_from_args(args).partition_policy == "worst-fit"

    def test_unknown_partition_policy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fig5", "--partition-policy", "random"]
            )

    def test_domain_list_reserved_for_shard_curve(self):
        args = build_parser().parse_args(["fig5", "--domains", "1,2,4"])
        with pytest.raises(ValueError, match="shard-curve"):
            config_from_args(args)

    def test_domain_list_accepted_for_shard_curve(self):
        args = build_parser().parse_args(
            ["shard-curve", "--domains", "1,2,4"]
        )
        # The list is a sweep axis, not a config override.
        assert config_from_args(args).domains == 1
        assert args.domains == (1, 2, 4)

    @pytest.mark.parametrize("bad", ["", "0", "two", "1,,2", "-1", "1,0"])
    def test_malformed_domain_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            _parse_domains(bad)

    def test_shard_config_applies_pressure_presets(self):
        args = build_parser().parse_args(["shard-curve"])
        config = shard_config_from_args(args)
        assert config.num_transactions == 500
        assert config.per_vertex_cost == pytest.approx(0.1)

    def test_explicit_transactions_beat_the_preset(self):
        args = build_parser().parse_args(
            ["shard-curve", "--transactions", "60"]
        )
        assert shard_config_from_args(args).num_transactions == 60


class TestMain:
    def test_runs_one_experiment(self, capsys):
        code = main(
            [
                "ablate-representation",
                "--quick",
                "--runs", "1",
                "--transactions", "30",
                "--processors", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RT-SADS" in out and "D-COLS" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])


class TestObservabilityFlags:
    def test_verbose_and_quiet_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--verbose", "--quiet"])

    def test_no_flags_means_no_instrumentation(self):
        from repro.experiments.cli import build_instrumentation

        args = build_parser().parse_args(["fig5"])
        assert build_instrumentation(args) is None

    def test_verbose_enables_info_logging(self):
        from repro.observability import INFO
        from repro.experiments.cli import build_instrumentation

        args = build_parser().parse_args(["fig5", "--verbose"])
        obs = build_instrumentation(args)
        assert obs is not None and obs.enabled
        assert obs.logger.level == INFO
        obs.close()

    def test_trace_out_attaches_jsonl_sink(self, tmp_path):
        from repro.observability import JsonlSink
        from repro.experiments.cli import build_instrumentation

        path = tmp_path / "trace.jsonl"
        args = build_parser().parse_args(["fig5", "--trace-out", str(path)])
        obs = build_instrumentation(args)
        assert isinstance(obs.sink, JsonlSink)
        obs.close()
        assert path.exists()


class TestMainWithObservability:
    ARGS = [
        "ablate-representation",
        "--quick",
        "--runs", "1",
        "--transactions", "30",
        "--processors", "3",
    ]

    def test_trace_out_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.observability import read_jsonl

        path = tmp_path / "trace.jsonl"
        code = main(self.ARGS + ["--trace-out", str(path)])
        assert code == 0
        events = read_jsonl(path)
        assert events, "trace must not be empty"
        kinds = {e["event"] for e in events}
        assert {"run_start", "run_end", "span", "task"} <= kinds
        phase_spans = [
            e for e in events
            if e["event"] == "span" and e.get("name") == "phase"
        ]
        assert phase_spans
        for span in phase_spans:
            assert "quantum" in span
            assert "vertices_generated" in span
            assert "feasibility_rejections" in span

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "metrics.json"
        code = main(self.ARGS + ["--metrics-out", str(path)])
        assert code == 0
        document = json_module.loads(path.read_text())
        assert document["experiments"] == ["ablate-representation"]
        assert document["cells"], "per-cell summaries must be recorded"
        counters = document["metrics"]["counters"]
        assert any(k.startswith("scheduler_phases{") for k in counters)
        assert counters["runtime_runs"] > 0

    def test_observability_flags_leave_global_default_restored(
        self, tmp_path, capsys
    ):
        from repro.observability import get_instrumentation

        main(self.ARGS + ["--metrics-out", str(tmp_path / "m.json")])
        assert not get_instrumentation().enabled

    def test_default_run_has_no_observability_side_effects(
        self, tmp_path, capsys, monkeypatch
    ):
        # A plain invocation writes nothing: no trace, no metrics, no
        # export.
        monkeypatch.chdir(tmp_path)
        code = main(list(self.ARGS))
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestSweepFlags:
    def test_defaults_serial_and_uncached(self):
        config = config_from_args(build_parser().parse_args(["fig5"]))
        assert config.jobs == 1

    def test_flags_reach_the_config(self):
        args = build_parser().parse_args(["fig5", "--jobs", "2"])
        config = config_from_args(args)
        assert config.jobs == 2

    def test_export_requires_a_figure_experiment(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "ablate-representation",
                    "--quick",
                    "--export", str(tmp_path / "out.json"),
                ]
            )

    def test_export_writes_figure_json(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "fig5.json"
        code = main(
            [
                "fig5",
                "--quick",
                "--runs", "1",
                "--transactions", "30",
                "--export", str(path),
            ]
        )
        assert code == 0
        document = json_module.loads(path.read_text())
        assert document["experiment"] == "fig5"
        labels = {s["label"] for s in document["figure"]["series"]}
        assert {"RT-SADS", "D-COLS"} <= labels

    def test_pooled_run_exports_the_serial_bytes(
        self, tmp_path, monkeypatch, capsys
    ):
        """--jobs changes where cells run, never the export, and leaves
        no file behind but the export."""
        monkeypatch.chdir(tmp_path)
        argv = ["fig5", "--quick", "--runs", "2", "--transactions", "30"]
        assert main(argv + ["--export", "serial.json"]) == 0
        assert main(argv + ["--jobs", "2", "--export", "pooled.json"]) == 0
        serial = tmp_path / "serial.json"
        assert serial.read_bytes() == (tmp_path / "pooled.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "pooled.json",
            "serial.json",
        ]


class TestServiceParsers:
    """`repro serve` / `repro load` reject unknown names in the parser."""

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["serve", "--scheduler", "nope"], "SCHEDULER_NAMES"),
            (["serve", "--policy", "nope"], "ADMISSION_POLICY_NAMES"),
            (["load", "--port", "1", "--arrival", "nope"], "ARRIVAL_NAMES"),
        ],
    )
    def test_bad_name_exits_2_with_the_choice_list(self, argv, names, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        for name in getattr(cli, names):
            assert repr(name) in err

    def test_live_knobs_map_given_flags_only(self):
        from repro.experiments.cli import LIVE_KNOB_FLAGS, given
        from repro.experiments.service_cli import build_serve_parser

        cluster = build_parser().parse_args(
            ["cluster", "--kill-worker", "1@0.5", "--heartbeat", "0.1"]
        )
        knobs = given(cluster, LIVE_KNOB_FLAGS)
        assert sorted(knobs) == ["failure", "heartbeat_interval"]
        assert knobs["heartbeat_interval"] == 0.1
        serve = build_serve_parser().parse_args(["--time-scale", "0.002"])
        assert given(serve, LIVE_KNOB_FLAGS) == {"seconds_per_unit": 0.002}


class TestUsageErrors:
    """A malformed flag value is exit status 2 and one line, no traceback."""

    @pytest.mark.parametrize(
        "argv,complaint",
        [
            (["fig5", "--domains", "abc"], "--domains"),
            (["fig5", "--domains", "0"], "--domains"),
            (["fig5", "--domains", "20"], "cannot split 10 processors"),
            (["fig5", "--domains", "1,2"], "only with shard-curve"),
            (["fig5", "--runs", "0"], "--runs"),
            (["fig5", "--jobs", "0"], "--jobs"),
            (["fig5", "--replication", "1.5"], "--replication"),
            (["cluster", "--kill-worker", "abc"], "--kill-worker"),
            (["cluster", "--kill-worker", "9@0.5"], "failure targets worker 9"),
            (["cluster", "--time-scale", "0"], "--time-scale"),
            (["serve", "--join", "abc"], "--join"),
            (["serve", "--port", "70000"], "--port"),
            (["serve", "--kill-worker", "5@1"], "failure targets worker 5"),
            (["load", "--port", "1", "--clients", "0"], "--clients"),
            (["load", "--clients", "2"], "required: --port"),
            (["trace", "timeline", "t.jsonl", "--width", "8"], "--width"),
        ],
    )
    def test_exit_2_one_line_no_traceback(self, argv, complaint, capsys):
        self.assert_usage_error(argv, complaint, capsys)

    @pytest.mark.parametrize(
        "argv,complaint",
        [
            (["fig5", "--slack-factor", "inf"], "--slack-factor"),
            (["fig5", "--slack-factor", "nan"], "--slack-factor"),
            (["cluster", "--time-scale", "inf"], "--time-scale"),
            (["serve", "--drain-grace", "inf"], "--drain-grace"),
            (["serve", "--backlog-units", "inf"], "--backlog-units"),
            (["serve", "--max-seconds", "nan"], "--max-seconds"),
            (["serve", "--join", "1@nan"], "--join"),
            (["cluster", "--kill-worker", "1@nan"], "--kill-worker"),
            (["cluster", "--kill-worker", "1@inf"], "--kill-worker"),
        ],
    )
    def test_non_finite_numbers_are_usage_errors(self, argv, complaint, capsys):
        self.assert_usage_error(argv, complaint, capsys)

    @staticmethod
    def assert_usage_error(argv, complaint, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert complaint in err
        assert "Traceback" not in err
        # argparse's shape: the usage synopsis, then one "error:" line.
        assert err.rstrip().splitlines()[-1].count("error: ") == 1


#: The tables whose rows each run on a simulator variant.
VARIANT_TABLES = [
    "ablate-quantum", "ablate-cost", "ablate-interconnect", "ablate-memory",
    "reclaiming", "load-sweep", "write-mix", "failures",
]


class TestVariantTables:
    """--backend / --domains reach a variant table or are refused: a table
    never prints one-domain simulator numbers under another label."""

    TINY = ["--quick", "--runs", "1", "--transactions", "30",
            "--processors", "4"]

    @pytest.mark.parametrize("name", VARIANT_TABLES)
    def test_live_backend_is_refused(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([name, *self.TINY, "--backend", "cluster"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.rstrip().splitlines()[-1]
        assert "error: backend 'cluster' cannot run" in last

    @pytest.mark.parametrize("name", VARIANT_TABLES)
    def test_domains_honoured_or_refused(self, name, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        argv = [name, *self.TINY, "--domains", "2", "--metrics-out", str(path)]
        if name == "ablate-interconnect":
            # A mesh is indexed by global processor id; a domain's
            # scheduler sees slots.
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "2 scheduling domains" in capsys.readouterr().err
            return
        assert main(argv) == 0
        timed = [
            key
            for key in json.loads(path.read_text())["metrics"]["histograms"]
            if key.startswith("sweep_cell_seconds{")
        ]
        assert timed and all("backend=sharded" in key for key in timed)


class TestClusterAliases:
    """--workers / --tasks are spellings of --processors / --transactions."""

    def test_aliases_share_one_dest(self):
        args = build_parser().parse_args(
            ["cluster", "--workers", "3", "--tasks", "40"]
        )
        assert (args.processors, args.transactions) == (3, 40)
        config = cluster_config_from_args(args)
        assert (config.num_processors, config.num_transactions) == (3, 40)

    def test_the_last_spelling_wins(self):
        args = build_parser().parse_args(
            ["cluster", "--workers", "4", "--processors", "8"]
        )
        assert cluster_config_from_args(args).num_processors == 8
        args = build_parser().parse_args(
            ["cluster", "--processors", "8", "--workers", "4"]
        )
        assert cluster_config_from_args(args).num_processors == 4

    def test_presets_apply_where_the_flag_is_absent(self):
        config = cluster_config_from_args(
            build_parser().parse_args(["cluster"])
        )
        assert config.backend == "cluster"
        assert config.num_processors == 4
        assert config.num_transactions == 200
        assert config.slack_factor == 3.0
        assert (config.runs, config.base_seed) == (1, 1)
        flagged = cluster_config_from_args(
            build_parser().parse_args(
                ["cluster", "--seed", "9", "--slack-factor", "1.5"]
            )
        )
        assert (flagged.base_seed, flagged.slack_factor) == (9, 1.5)
        assert flagged.num_processors == 4


class TestServicePresets:
    def test_serve_and_load_rebuild_the_same_template_universe(self):
        from repro.experiments.service_cli import (
            build_load_parser,
            build_serve_parser,
            experiment_from_args,
        )

        flags = ["--workers", "3", "--seed", "5"]
        serve = experiment_from_args(build_serve_parser().parse_args(flags))
        load = experiment_from_args(
            build_load_parser().parse_args(["--port", "1", *flags])
        )
        assert serve == load
        assert serve.backend == "service" and serve.runs == 1
        assert (serve.num_processors, serve.base_seed) == (3, 5)
        assert (serve.num_transactions, serve.slack_factor) == (100, 3.0)
