"""Command-line interface: parsing, exit codes, and output plumbing."""

import pytest

from robust_lmoments.cli import RunConfig, main, parse_args, run


@pytest.fixture
def sample_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1\n2\n3\n4\n")
    return str(p)


class TestParseArgs:
    def test_fit_config(self, sample_file):
        cfg = parse_args(
            [
                "fit",
                "--family",
                "exponential(1)",
                "--mode",
                "mtm",
                "--trim",
                "0.1,0.1",
                "--data",
                sample_file,
            ]
        )
        assert cfg.command == "fit"
        assert cfg.model == "exponential(1)"
        assert cfg.trims == ((0.1, 0.1),)
        assert cfg.mode == "mtm"

    def test_trim_mass_exhausted(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--family", "exponential(?)", "--trim", "0.6,0.5"])
        assert exc.value.code == 2
        assert "a+b must be < 1" in capsys.readouterr().err

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--family", "exponential(?)", "--bogus"])
        assert exc.value.code == 2

    def test_equivalence_defaults(self):
        cfg = parse_args(["equivalence"])
        assert cfg.command == "equivalence"
        with pytest.raises(SystemExit) as exc:
            parse_args(["equivalence", "--seed", "42"])
        assert exc.value.code == 2

    def test_defaults_are_run_config_defaults(self):
        cfg = parse_args(["simulate"])
        defaults = RunConfig(command="simulate")
        for name in ("mode", "method", "seed", "n", "replications", "tolerance"):
            assert getattr(cfg, name) == getattr(defaults, name)

    def test_simulate_config_file(self, tmp_path):
        f = tmp_path / "sim.cfg"
        f.write_text(
            "# monte carlo setup\n"
            "family = uniform(0,1)\n"
            "transform = identity\n"
            "trim = 0.25,0.25\n"
            "n = 500   # per replication\n"
            "replications = 200\n"
            "seed = 9\n"
        )
        cfg = parse_args(["simulate", "--config", str(f)])
        assert cfg.model == "uniform(0,1)"
        assert cfg.trims == ((0.25, 0.25),)
        assert cfg.n == 500
        assert cfg.replications == 200
        assert cfg.seed == 9


class TestConfigFile:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("replication = 200\n", "unknown key 'replication'; known keys: family,"),
            ("n = abc\n", "sim.cfg:1: bad n 'abc'"),
            ("seed = 1\nn 500\n", "sim.cfg:2: expected key=value"),
            ("trim = 0.6,0.5\n", "bad trim '0.6,0.5': a+b must be < 1"),
            ("mode = trimmed\n", "bad mode 'trimmed'"),
        ],
        ids=["unknown-key", "bad-number", "no-equals", "bad-trim", "bad-mode"],
    )
    def test_config_errors_are_usage_errors(self, tmp_path, capsys, text, message):
        f = tmp_path / "sim.cfg"
        f.write_text(text)
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--config", str(f)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --config: " in err
        assert message in err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(missing)])
        assert exc.value.code == 2
        assert "error: --config: [Errno 2] No such file" in capsys.readouterr().err


class TestRun:
    def test_moments_sample_and_population(self, sample_file, capsys):
        code = main(
            [
                "moments",
                "--data",
                sample_file,
                "--family",
                "exponential(2.5)",
                "--transform",
                "identity",
                "--trim",
                "0.25,0.25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sample" in out and "2.5" in out
        assert "population" in out

    def test_fit_success(self, sample_file, capsys):
        code = main(
            [
                "fit",
                "--family",
                "exponential(?)",
                "--data",
                sample_file,
                "--transform",
                "identity",
            ]
        )
        assert code == 0
        assert "theta[0] = 2.5" in capsys.readouterr().out

    def test_fit_empty_sample(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        code = main(
            [
                "fit",
                "--family",
                "exponential(?)",
                "--data",
                str(p),
                "--transform",
                "identity",
            ]
        )
        assert code == 1
        assert "empty sample" in capsys.readouterr().err

    def test_asymcov_csv(self, capsys):
        code = main(
            [
                "asymcov",
                "--family",
                "uniform(0,1)",
                "--transform",
                "identity",
                "--trim",
                "0.25,0.25",
                "--csv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "i,j,sigma2,method"
        assert "equal-props" in out

    def test_simulate_pass_line(self, capsys):
        code = main(
            [
                "simulate",
                "--family",
                "uniform(0,1)",
                "--transform",
                "identity",
                "--trim",
                "0.25,0.25",
                "-n",
                "2000",
                "-R",
                "500",
                "--seed",
                "12345",
                "--tolerance",
                "0.2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_simulate_fail_exit_code(self, capsys):
        code = main(
            [
                "simulate",
                "--family",
                "uniform(0,1)",
                "--transform",
                "identity",
                "--trim",
                "0.25,0.25",
                "-n",
                "500",
                "-R",
                "100",
                "--seed",
                "1",
                "--tolerance",
                "1e-9",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_atomic_output_file(self, tmp_path, sample_file):
        out_path = tmp_path / "result.txt"
        code = main(
            [
                "moments",
                "--data",
                sample_file,
                "--transform",
                "identity",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "sample" in out_path.read_text()
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert not leftovers

    def test_malformed_family_is_computational_error(self, sample_file, capsys):
        code = main(
            [
                "moments",
                "--data",
                sample_file,
                "--family",
                "gamma(2)",
                "--transform",
                "identity",
            ]
        )
        assert code == 1
        assert "unknown family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["asymcov", "--family", "normal(0,1,2)"],
            ["asymcov", "--family", "uniform(0,1)", "--transform", "power(1,2)"],
        ],
        ids=["family", "transform"],
    )
    def test_wrong_arity_is_computational_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_config_direct(self):
        code = run(RunConfig(command="moments", transforms=("identity",)))
        assert code == 1  # neither data nor family given

    def test_non_finite_data_rejected(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("1\n2\nnan\n4\n5\n")
        code = main(["moments", "--data", str(p), "--trim", "0.2,0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "non-finite rows at lines [3]" in captured.err

    def test_simulate_replication_failures_are_errors(self, capsys):
        code = main(
            [
                "simulate",
                "--family",
                "normal(0,1)",
                "--transform",
                "log",
                "--trim",
                "0.6,0.1",
                "-n",
                "10",
                "-R",
                "100",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "nan" not in captured.out


@pytest.mark.parametrize(
    "argv, labels",
    [
        (["moments", "--family", "exponential(2.5)", "--trim", "0.25,0.25"], {1}),
        (["asymcov", "--family", "exponential(1)", "--trim", "0.1,0.1",
          "--transform", "identity", "--transform", "log"], {3}),
        (["fit", "--family", "exponential(?)"], set()),
        (["simulate", "--family", "uniform(0,1)", "--trim", "0.25,0.25",
          "-n", "200", "-R", "100", "--tolerance", "1"], set()),
    ],
    ids=["moments", "asymcov", "fit", "simulate"],
)
def test_csv_cells_are_numbers(argv, labels, sample_file, capsys):
    if argv[0] in ("moments", "fit"):
        argv = argv + ["--data", sample_file]
    assert main(argv + ["--csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert rows
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        for col, cell in enumerate(cells):
            if col not in labels:
                float(cell)
