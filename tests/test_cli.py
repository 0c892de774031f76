"""Command-line interface: parsing, exit codes, and output plumbing."""

import numpy as np
import pytest

from robust_lmoments import (
    AuditCase,
    AuditResult,
    Identity,
    MomentSpec,
    Uniform,
    cli,
    parse_transform,
    sample_moment,
)
from robust_lmoments.cli import RunConfig, _build_parser, main, parse_args, run


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

    def test_repeated_parses_do_not_share_lists(self):
        fit = ["fit", "--family", "lognormal(?,?)"]
        first = parse_args(
            fit + ["--transform", "log", "--trim", "0.1,0.1",
                   "--transform", "identity", "--trim", "0.2,0.0"]
        )
        second = parse_args(fit + ["--transform", "power(2)", "--trim", "0.05,0.05"])
        third = parse_args(fit)
        assert first.transforms == ("log", "identity")
        assert first.trims == ((0.1, 0.1), (0.2, 0.0))
        assert second.transforms == ("power(2)",)
        assert second.trims == ((0.05, 0.05),)
        assert third.transforms == () and third.trims == ()
        assert _build_parser() is _build_parser()

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

    def test_moments_sorts_the_sample_once_for_every_spec(self, tmp_path, monkeypatch, capsys):
        values = [3.5, 1.25, 9.0, 2.0, 7.75, 4.5, 0.5, 6.0, 8.25, 5.0]
        p = tmp_path / "x.txt"
        p.write_text("\n".join(map(repr, values)) + "\n")
        coordinates = [("identity", 0.1, 0.1), ("log", 0.2, 0.0), ("power(2)", 0.0, 0.3)]
        argv = ["moments", "--data", str(p)]
        expected = ""
        for j, (name, a, b) in enumerate(coordinates):
            argv += ["--transform", name, "--trim", f"{a},{b}"]
            v = sample_moment(values, MomentSpec(parse_transform(name), a, b))
            expected += f"[{j}] sample    {v:.12g}\n"
        sorts = []
        sort = np.sort
        monkeypatch.setattr(
            np, "sort", lambda *args, **kwargs: sorts.append(1) or sort(*args, **kwargs)
        )
        assert main(argv) == 0
        assert len(sorts) == 1
        assert capsys.readouterr().out == expected

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

    def test_fit_report_is_the_same_for_every_data_layout(self, tmp_path):
        xs = np.random.default_rng(3).exponential(2.0, 400).tolist()
        half = len(xs) // 2
        layouts = {
            "plain": "".join(f"{x!r}\n" for x in xs),
            "commented": "# losses\n"
            + "".join(f"{x!r}\n" for x in xs[:half])
            + "\n"
            + "".join(f"{x!r}\n" for x in xs[half:]),
            "csv": "".join(f"{x!r},claim-{i}\n" for i, x in enumerate(xs)),
        }
        reports = {}
        for name, text in layouts.items():
            data, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.out"
            data.write_text(text)
            argv = ["fit", "--family", "exponential(?)", "--data", str(data),
                    "--trim", "0.1,0.1", "--out", str(out)]
            assert main(argv) == 0
            reports[name] = out.read_bytes()
        assert reports["plain"].startswith(b"model: ")
        assert reports["plain"] == reports["commented"] == reports["csv"]

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

    def test_simulate_refuses_trimming_that_removes_nothing(self, capsys):
        code = main(
            ["simulate", "--family", "pareto(0.5,1)", "--transform", "power(3)",
             "--trim", "0,0.01", "-n", "50", "-R", "200"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: coordinate 0: b=0.01 trims no observation of n=50; "
            "n >= 100 trims at least one\n"
        )

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


class TestRefusals:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trim", "0.1"], "expected 'a,b' with two numbers, got '0.1'"),
            (["--trim=-0.1,0.2"], "proportions must be >= 0, got a=-0.1, b=0.2"),
            (["--trim", "nan,0.1"], "proportions must be numbers, got a=nan, b=0.1"),
            (["--trim", "0.1,nan"], "proportions must be numbers, got a=0.1, b=nan"),
        ],
        ids=["one-number", "negative", "nan-lower", "nan-upper"],
    )
    def test_bad_trim_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["asymcov", "--family", "uniform(0,1)", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_nan_trim_prints_no_covariance(self, capsys):
        # It used to print ' nan' with methods (0,0)=kernel and exit 0.
        with pytest.raises(SystemExit) as exc:
            main(["asymcov", "--family", "exponential(1)", "--trim", "nan,0.1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "proportions must be numbers, got a=nan, b=0.1" in captured.err

    def test_non_finite_family_parameter(self, capsys):
        code = main(["asymcov", "--family", "normal(nan,1)"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: non-finite parameter in 'normal(nan,1)'\n"

    def test_more_trim_pairs_than_transforms(self, capsys):
        code = main(
            ["asymcov", "--family", "uniform(0,1)",
             "--transform", "identity", "--transform", "power(2)",
             "--trim", "0.1,0.1", "--trim", "0.2,0.1", "--trim", "0.1,0.2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: 2 transforms but 3 trim pairs\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--transform", "log", "--trim", "0,0.1"],
            ["fit", "--family", "exponential(?)", "--transform", "log", "--trim", "0,0.1"],
        ],
        ids=["moments", "fit"],
    )
    def test_a_zero_claim_under_log_is_refused(self, argv, tmp_path, capsys):
        # moments used to print -inf; fit failed in the solver.
        p = tmp_path / "losses.txt"
        p.write_text("0\n0.5\n1.2\n2.0\n3.1\n4.7\n6.0\n8.2\n9.9\n12.5\n")
        code = main([*argv, "--data", str(p)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: moment over order statistics 1 .. 9 of n=10 is not finite: "
            "the transform is infinite or too large there\n"
        )

    def test_an_overflowing_covariance_is_an_error_line(self, capsys):
        # It used to end in an OverflowError traceback.
        code = main(
            ["asymcov", "--family", "uniform(0,1e200)", "--transform", "power(2)",
             "--trim", "0.1,0.1"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: entry (0, 0): equal-props covariance of ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--family", "exponential(?)"], "fit requires --data"),
            (["simulate"], "simulate requires --family (flag or config file)"),
        ],
        ids=["fit", "simulate"],
    )
    def test_missing_input(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


WORST = AuditCase(
    Uniform(0.0, 1.0),
    MomentSpec(Identity(), 0.05, 0.25),
    MomentSpec(Identity(), 0.10, 0.10),
)


def _canned(max_deviation: float, tolerance: float) -> AuditResult:
    return AuditResult(
        cases=3,
        comparisons=7,
        max_deviation=max_deviation,
        worst_case=WORST,
        worst_pair=("alpha", "kernel"),
        runtime_s=0.25,
        tolerance=tolerance,
    )


class TestEquivalence:
    """The command reports the three audits; they are replaced by canned
    results, since the real ones take tens of seconds."""

    @pytest.fixture
    def audits(self, monkeypatch):
        results = {
            "run_mtm_audit": _canned(2e-9, 1e-6),
            "run_mwm_audit": _canned(3e-8, 1e-6),
            "run_mwm_equal_props_audit": _canned(4e-15, 1e-10),
        }
        for name, result in results.items():
            monkeypatch.setattr(cli, name, lambda result=result: result)
        return results

    def test_text_report_passes(self, audits, capsys):
        assert main(["equivalence"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0::2] == [
            "PASS trimmed-routes: 3 configs, max deviation 2.000e-09 "
            "(tolerance 1e-06) in 0.2s",
            "PASS winsorized-decomposition: 3 configs, max deviation 3.000e-08 "
            "(tolerance 1e-06) in 0.2s",
            "PASS winsorized-equal-props: 3 configs, max deviation 4.000e-15 "
            "(tolerance 1e-10) in 0.2s",
        ]
        worst = f"  worst: uniform(0,1) {WORST.spec_i} vs {WORST.spec_j}"
        assert lines[1::2] == [worst] * 3

    def test_csv_report(self, audits, capsys):
        assert main(["equivalence", "--csv"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "audit,cases,comparisons,max_deviation,tolerance,runtime_s,status",
            "trimmed-routes,3,7,2e-09,1e-06,0.25,PASS",
            "winsorized-decomposition,3,7,3e-08,1e-06,0.25,PASS",
            "winsorized-equal-props,3,7,4e-15,1e-10,0.25,PASS",
        ]

    def test_one_failed_audit_fails_the_command(self, audits, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_mwm_audit", lambda: _canned(2e-6, 1e-6))
        assert main(["equivalence"]) == 1
        out = capsys.readouterr().out
        assert "FAIL winsorized-decomposition: 3 configs" in out
        assert out.count("PASS") == 2
