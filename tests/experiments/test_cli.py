"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "figure1",
            "table2",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "table3",
            "figure10",
            "faults",
            "recover",
        }

    def test_parse_experiment_with_scale(self):
        args = build_parser().parse_args(["table2", "--scale", "0.5"])
        assert args.command == "table2"
        assert args.scale == 0.5

    def test_parse_report(self):
        args = build_parser().parse_args(["report", "-o", "out.md"])
        assert args.output == "out.md"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_partitioner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--partitioner", "patoh"])

    def test_parse_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.target == "exchange"
        assert args.K == 64 and args.dims == 2

    def test_trace_is_not_an_experiment(self):
        # `trace` wraps experiments, it is not one itself
        assert "trace" not in EXPERIMENTS

    def test_trace_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "nonsense"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["drift", "--check", "x"],
            ["chaos", "-o", "x"],
            ["corrupt", "--check", "x"],
            ["chaos", "--engine", "event"],
            ["run", "faults", "--engine", "event"],
            ["figure8", "--engine", "event"],
        ],
    )
    def test_removed_benchmark_spellings_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err


class TestCommands:
    def test_instances(self, capsys):
        assert main(["instances"]) == 0
        out = capsys.readouterr().out
        assert "gupta2" in out and "pattern1" in out

    def test_figure1_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "pattern1" in out and "max=" in out

    def test_scale_override(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["figure1", "--scale", "0.03", "--seed", "1"]) == 0
        assert "sparsine" in capsys.readouterr().out

    def test_trace_exchange(self, tmp_path, capsys):
        assert main(["trace", "--out", str(tmp_path), "--K", "16"]) == 0
        out = capsys.readouterr().out
        assert "traced msgs" in out and "stfw.stage_messages" in out

        from repro.obs import validate_chrome_trace

        doc = validate_chrome_trace((tmp_path / "exchange.trace.json").read_text())
        assert doc["traceEvents"]
        assert (tmp_path / "exchange.events.jsonl").read_text().strip()

    def test_trace_experiment_writes_the_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["trace", "figure1", "--scale", "0.03", "--cache", str(cache)]
        assert main(argv + ["--out", str(tmp_path / "trace")]) == 0
        assert {"matrix", "partition", "pattern"} <= {p.name for p in cache.iterdir()}

    def test_cache_stats_titles_the_schema_tag(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "(schema repro-cache-v1)" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        # keep the report test fast: restrict to the two cheapest entries
        import repro.cli as cli

        full = dict(cli.EXPERIMENTS)
        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"figure1": full["figure1"], "figure6": full["figure6"]}
        )
        out = tmp_path / "report.md"
        assert main(["report", "-o", str(out)]) == 0
        text = out.read_text()
        assert "## figure1" in text and "## figure6" in text
        assert "matrix scale: 0.02" in text


class TestDriftCommand:
    def test_parse_defaults(self):
        args = build_parser().parse_args(["drift"])
        assert args.command == "drift"
        assert args.K is None and args.rates is None
        assert not args.no_validate and not args.no_service

    def test_parse_full_flags(self):
        args = build_parser().parse_args(
            ["drift", "--K", "64", "--degree", "6", "--rates", "0.05", "0.25",
             "--epochs", "2", "--no-service"]
        )
        assert args.K == 64
        assert args.rates == [0.05, 0.25]
        assert args.no_service

    def test_run_prints_the_latency_table(self, capsys):
        rc = main(
            ["drift", "--K", "32", "--degree", "4", "--rates", "0.1",
             "--epochs", "1", "--no-service"]
        )
        assert rc == 0
        assert "Dynamic exchange under drift" in capsys.readouterr().out


class TestSubcommandFlags:
    """Each subcommand takes only the flags its experiment reads."""

    @pytest.mark.parametrize("name", ["table2", "figure6", "figure7", "table3"])
    def test_svg_without_a_chart_adapter_is_a_usage_error(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--svg", "x"])
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["figure1", "figure8", "figure9", "figure10"])
    def test_svg_parses_where_a_chart_adapter_exists(self, name):
        assert build_parser().parse_args([name, "--svg", "x"]).svg == "x"

    @pytest.mark.parametrize(
        "argv",
        [
            ["faults", "--scale", "0.1"],
            ["faults", "--partitioner", "rcm"],
            ["faults", "--cache"],
            ["faults", "--svg", "x"],
            ["recover", "--scale", "0.1"],
            ["recover", "--cache"],
            ["recover", "--svg", "x"],
            ["run", "figure9"],
            ["drift", "--cache"],
            ["chaos", "--cache"],
        ],
    )
    def test_flags_nothing_reads_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_faults_and_recover_keep_the_flags_they_read(self):
        assert build_parser().parse_args(["faults", "--seed", "3"]).seed == 3
        args = build_parser().parse_args(
            ["recover", "--seed", "3", "--partitioner", "block"]
        )
        assert (args.seed, args.partitioner) == (3, "block")


class TestResilienceKeywords:
    """The flag -> ``run()`` keyword mapping of ``drift``, ``chaos`` and
    ``corrupt``: the keywords each run receives, and the config seed."""

    @pytest.fixture
    def received(self, monkeypatch):
        import importlib

        def run_cli(argv):
            mod = importlib.import_module(f"repro.experiments.{argv[0]}")
            seen = {}

            def record(cfg, **kwargs):
                seen.update(seed=cfg.seed, kwargs=kwargs)
                raise SystemExit(0)  # stop before format_result

            monkeypatch.setattr(mod, "run", record)
            with pytest.raises(SystemExit):
                main(argv)
            return seen

        return run_cli

    @pytest.mark.parametrize(
        "argv, seed, kwargs",
        [
            (
                ["drift"],
                0,
                dict(epochs=3, validate=True, service=True),
            ),
            (
                ["drift", "--K", "64", "--degree", "6", "--rates", "0.05", "0.25",
                 "--epochs", "2", "--seed", "7", "--no-validate", "--no-service"],
                7,
                dict(K=64, degree=6.0, rates=(0.05, 0.25), epochs=2,
                     validate=False, service=False),
            ),
            (["chaos"], 0, dict(validate=True)),
            (
                ["chaos", "--K", "64", "--degree", "3", "--epochs", "40",
                 "--rate", "0.05", "--tail", "6", "--seed", "5",
                 "--no-validate", "--corruption"],
                5,
                dict(K=64, degree=3.0, epochs=40, drift_rate=0.05, tail=6,
                     validate=False, corruption=True),
            ),
            (["corrupt"], 0, {}),
            (
                ["corrupt", "--K", "16", "--degree", "3", "--epochs", "12",
                 "--seed", "11"],
                11,
                dict(K=16, degree=3.0, epochs=12),
            ),
        ],
    )
    def test_flags_reach_run_as_keywords(self, received, argv, seed, kwargs):
        seen = received(argv)
        assert seen["seed"] == seed
        assert seen["kwargs"] == kwargs
        assert type(seen["kwargs"].get("rates", ())) is tuple
