import json
import os

import numpy as np
import pytest

import opendicke.cli as cli
from opendicke.eigen import ConvergenceError


def run(argv):
    return cli.main(argv)


class TestCritical:
    def test_prints_twelve_digits(self, capsys):
        rc = run(["critical", "--omega-a", "1", "--omega-b", "1", "--gamma-a", "0.5", "--s-a", "-0.5"])
        assert rc == 0
        assert capsys.readouterr().out == "0.500000000000\n"

    def test_detuned(self, capsys):
        rc = run(["critical", "--omega-a", "1.2"])
        assert rc == 0
        assert capsys.readouterr().out == "0.547722557505\n"  # sqrt(1.2)/2 = 0.5477225575051661...

    def test_detuned_digits_are_correctly_rounded(self, tmp_path, capsys):
        # Every printed digit of g_c = sqrt(omega_a omega_b)/2 is the rounding
        # of its 40-digit value.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        points = [(1.0, 3.0)] + [tuple(rng.uniform(0.5, 2.0, 2).tolist()) for _ in range(300)]
        for wa, wb in points:
            assert run(["critical", "--omega-a", repr(wa), "--omega-b", repr(wb)]) == 0
            with mp.workdps(40):
                digits = int(mp.nint(mp.sqrt(mp.mpf(wa) * mp.mpf(wb)) / 2 * 10**12))
            assert capsys.readouterr().out == f"{digits // 10**12}.{digits % 10**12:012d}\n"
        out = tmp_path / "crit.csv"
        assert run(["critical", "--omega-b", "3", "-o", str(out)]) == 0
        assert capsys.readouterr().out == "0.866025403784\n"
        assert out.read_text() == "# columns: g_star\n8.66025403784e-01\n"

    def test_writes_optional_file(self, tmp_path, capsys):
        out = tmp_path / "crit.csv"
        assert run(["critical", "-o", str(out)]) == 0
        assert out.read_text() == "# columns: g_star\n5.00000000000e-01\n"


class TestEigenCommand:
    def test_example_sweep(self, tmp_path, capsys):
        out = tmp_path / "eigen.csv"
        rc = run([
            "eigen", "--omega-a", "1", "--omega-b", "1", "--gamma-a", "0.3",
            "--gamma-b", "0.2", "--sweep", "g:0:0.7:400", "-o", str(out),
        ])
        assert rc == 0
        assert "400 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# axis=g")
        assert lines[1] == "# columns: g,re_lower,im_lower,re_upper,im_upper,gap_flag"
        assert len(lines) == 402
        body = [ln.split(",") for ln in lines[2:]]
        assert all(len(row) == 6 for row in body)
        gaps = np.array([int(row[5]) for row in body])
        gvals = np.array([float(row[0]) for row in body])
        assert gaps.sum() > 0
        flagged = gvals[gaps == 1]
        assert flagged.min() < 0.5 < flagged.max() + 2e-3

    def test_deterministic_and_parallel_identical(self, tmp_path):
        args = ["eigen", "--gamma-a", "0.3", "--gamma-b", "0.2", "--sweep", "g:0:0.7:40"]
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert run(args + ["-o", str(c), "--parallel", "2"]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "eigen.json"
        rc = run(["eigen", "--gamma-a", "0.2", "--sweep", "g:0.1:0.4:10",
                  "--format", "json", "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, separators=(",", ":")) + "\n" == text
        assert len(doc["values"]) == 10
        assert doc["phase_labels"][0] == "normal"

    def test_nonohmic_sweep(self, tmp_path):
        out = tmp_path / "eigen.csv"
        rc = run(["eigen", "--gamma-a", "0.3", "--s-a", "-0.5", "--sweep",
                  "g:0.1:0.4:5", "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 7

    def test_default_output_name_follows_the_format(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["eigen", "--gamma-a", "0.2", "--sweep", "g:0:0.3:5"]
        assert run(argv + ["--format", "json"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["eigen.json"]
        assert json.loads((tmp_path / "eigen.json").read_text())["axis"] == "g"
        assert run(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eigen.csv", "eigen.json"]


class TestSpectrumCommand:
    def test_example_grid(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        rc = run([
            "spectrum", "--g", "0.25", "--sweep", "ratio:0.2:2:20",
            "--probe", "0.01:1.8:50", "--linear-gamma-b", "-o", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# axis=ratio")
        assert len(lines) == 2 + 20 * 50
        assert all(len(ln.split(",")) == 5 for ln in lines[2:])

    def test_phase_labels_column(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = run(["spectrum", "--g", "0.6", "--sweep", "ratio:0.5:2:4",
                  "--probe", "0.1:1.5:5", "--include-phase-labels", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",phase")
        assert lines[2].endswith(",superradiant")
        assert lines[-1].endswith(",normal")

    def test_json_round_trip_and_parallel(self, tmp_path, monkeypatch):
        argv = ["spectrum", "--g", "0.3", "--sweep", "g:0.1:0.5:6", "--probe", "0.2:1.5:7",
                "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["-o", str(a)]) == 0
        monkeypatch.setenv(cli.PARALLEL_ENV, "2")
        assert run(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert list(doc) == ["axis", "sweep_values", "probe_frequencies", "abs_s11", "phase_labels"]
        assert len(doc["abs_s11"]) == 42

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run(["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:1.0:4"])
        assert rc == 0
        assert (tmp_path / "spectrum.csv").exists()

    def test_default_output_name_follows_the_format(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:1.0:4"]
        assert run(argv + ["--format", "json"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["spectrum.json"]
        assert run(argv + ["--format", "json", "-o", "b.json"]) == 0
        assert (tmp_path / "spectrum.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestOtherCommands:
    def test_condensates_stdout(self, capsys):
        rc = run(["condensates", "--g", str(2**-0.5), "--gamma-a", "0.1", "--omega", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase: superradiant" in out
        assert "alpha_per_n: 0.375" in out
        assert "beta_per_n: 0.25" in out
        assert "sigma_a_per_n: 0.0238732" in out

    def test_condensates_file(self, tmp_path, capsys):
        out = tmp_path / "cond.json"
        rc = run(["condensates", "--g", "0.3", "--format", "json", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["phase"] == "normal"
        assert doc["alpha_per_n"] == 0.0

    def test_squeeze_stdout_and_file(self, tmp_path, capsys):
        out = tmp_path / "sq.csv"
        rc = run(["squeeze", "--g", "0.4", "--gamma-a", "0.1", "--gamma-b", "0.2",
                  "--omega", "1.0", "--theta", "0.7", "-o", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "vacuum reference 1/(2 omega): 0.5" in stdout
        lines = out.read_text().splitlines()
        assert lines[1] == "# columns: phi,variance"
        assert len(lines) == 2 + 64
        values = np.array([float(ln.split(",")[1]) for ln in lines[2:]])
        assert np.max(np.abs(values - 0.5)) < 1e-10

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_squeeze_phi_points_below_one_is_usage_error(self, count, tmp_path, capsys):
        out = tmp_path / "sq.csv"
        rc = run(["squeeze", "--omega", "1.0", "--phi-points", count, "-o", str(out)])
        assert rc == 2
        assert "--phi-points must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_altcoupling(self, tmp_path, capsys):
        path = tmp_path / "alt.csv"
        rc = run(["altcoupling", "--f-a0", "0.19", "-o", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "g_c_prime: 0.474341649" in out
        # The file is JSON whatever its name.
        assert json.loads(path.read_text())["g_c_prime"] == 0.4743416490252569
        rc = run(["altcoupling", "--f-a0", "1.5"])
        assert rc == 0
        assert "abnormal_a: True" in capsys.readouterr().out


class TestFailureModes:
    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_output_takes_the_mode_open_gives(self, umask, tmp_path):
        out, plain = tmp_path / "c.csv", tmp_path / "plain.csv"
        previous = os.umask(umask)
        try:
            assert run(["critical", "-o", str(out)]) == 0
            plain.write_text("")
        finally:
            os.umask(previous)
        assert oct(out.stat().st_mode & 0o777) == oct(plain.stat().st_mode & 0o777)

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["critical", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["critical", "--format", "json"],
        ["critical", "--parallel", "2"],
        ["altcoupling", "--format", "csv"],
        ["altcoupling", "--parallel", "2"],
        ["squeeze", "--omega", "1", "--parallel", "2"],
        ["condensates", "--parallel", "2"],
        ["critical", "--g-lo", "0"],
        ["critical", "--g-hi", "1"],
        ["critical", "--g-hi", "inf"],
        ["critical", "--g-lo", "nan"],
    ])
    def test_flag_the_command_ignores_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "x.out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["-o", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, message", [
        (
            ["eigen", "--sweep", "g:-0.2:0.3:5"],
            "g = -0.2: coupling g must be nonnegative, got -0.2",
        ),
        (["eigen", "--sweep", "omega_b:0:1:5"], "omega_b = 0.0: omega_b must be positive, got 0.0"),
        (
            ["spectrum", "--sweep", "ratio:-1:1:5", "--probe", "0.1:1:5"],
            "ratio = -1.0: omega_b must be positive, got -1.0",
        ),
        (
            ["spectrum", "--sweep", "g:-1:1:5", "--probe", "0.1:1:5"],
            "g = -1.0: coupling g must be nonnegative, got -1.0",
        ),
    ], ids=["argv0", "argv1", "argv2", "argv3"])
    def test_sweep_outside_the_domain_is_usage_error(
        self, argv, message, workers, tmp_path, capsys
    ):
        out = tmp_path / "x.csv"
        assert run(argv + ["--parallel", workers, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: sweep leaves the model's domain at {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["critical", "--omega-a", "1e-200", "--omega-b", "1e-200"],
        ["condensates", "--g", "1e160", "--omega", "1"],
        ["eigen", "--omega-a", "1e200", "--omega-b", "1e200", "--sweep", "g:0:7e199:5"],
        ["condensates", "--g", "1e100"],
        ["condensates", "--omega-a", "1e-200", "--omega-b", "1e200", "--g", "1e100"],
        ["condensates", "--omega-a", "1e-200", "--omega-b", "1e250", "--g", "1e30"],
        ["eigen", "--omega-b", "1e200", "--sweep", "g:1e130:2e130:2"],
        ["spectrum", "--omega-b", "1e200", "--sweep", "g:1e130:2e130:2", "--probe", "0.5:1:3"],
    ], ids=[
        "critical-underflow", "condensates-overflow", "eigen-overflow", "condensates-lam-squared",
        "condensates-lam-squared-via-product", "condensates-alpha-prefactor", "eigen-d-term",
        "spectrum-d-term",
    ])
    def test_points_beyond_float_range_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert run(argv + ["-o", str(out)]) == 2
        assert "every PhaseData field of the point must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (
            ["--sweep", "g:-1:1:5", "--probe", "0.1:1:5"],
            "sweep leaves the model's domain at g = -1.0",
        ),
        (["--sweep", "g:0.1:1:5", "--probe=-0.5:1:5"], "probe grid must be finite and positive"),
        (["--sweep", "omega_b:0.1:1:5", "--probe", "0.1:1:5"], "sweep axis must be one of"),
        (
            ["--sweep", "g:0.1:1:5", "--probe", "0.1:1:5", "--format", "json",
             "--include-phase-labels"],
            "include_phase is a CSV column",
        ),
        (
            ["--sweep", "g:0.1:1:5", "--probe", "0.1:1:5", "--linear-gamma-b"],
            "linear_gamma_b scales gamma_b along a 'ratio' sweep",
        ),
    ], ids=["sweep-domain", "probe", "axis", "phase-labels-json", "linear-gamma-b-on-g"])
    def test_spectrum_usage_errors_come_before_the_output_opens(
        self, argv, message, tmp_path, capsys
    ):
        # The missing directory would make opening the output exit 4.
        out = tmp_path / "missing" / "x.out"
        assert run(["spectrum", *argv, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_s11_is_usage_error(self, workers, fmt, tmp_path, capsys):
        # The rows overflow as the output is written: the temp file goes too.
        # 30 rows are four pool tasks, so two workers really run.
        argv = ["spectrum", "--gamma-a", "1e300", "--g", "0.3", "--sweep", "g:0.1:0.3:30"]
        out = tmp_path / "x.out"
        argv += ["--probe", "0.5:1:5", "--format", fmt, "--parallel", workers, "-o", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: S11 is not finite at probe frequency 0.5, where the port rates are"
            " gamma_a = 1e+300 and gamma_b = 0.1\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_bad_sweep_axis(self, capsys):
        assert run(["eigen", "--sweep", "ratio:0:1:10"]) == 2
        assert "sweep axis" in capsys.readouterr().err

    def test_bad_probe_bound(self, capsys):
        assert run(["spectrum", "--sweep", "g:0:0.5:5", "--probe", "0:1.8:10"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_too_few_points(self, capsys):
        assert run(["eigen", "--sweep", "g:0:0.5:1"]) == 2

    def test_decreasing_range(self, capsys):
        assert run(["eigen", "--sweep", "g:0.5:0.1:10"]) == 2

    def test_invalid_params(self, capsys):
        assert run(["critical", "--omega-a", "-1"]) == 2
        assert run(["eigen", "--gamma-a", "-0.1", "--sweep", "g:0:0.5:5"]) == 2

    def test_non_integer_parallel_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.PARALLEL_ENV, "abc")
        assert run(["eigen", "--sweep", "g:0:0.5:5"]) == 2
        assert cli.PARALLEL_ENV in capsys.readouterr().err

    def test_parallel_below_one_names_its_source(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.PARALLEL_ENV, "0")
        assert run(["eigen", "--sweep", "g:0:0.5:5"]) == 2
        assert f"${cli.PARALLEL_ENV} must be >= 1, got 0" in capsys.readouterr().err
        assert run(["eigen", "--sweep", "g:0:0.5:5", "--parallel", "0"]) == 2
        assert "--parallel must be >= 1, got 0" in capsys.readouterr().err

    def test_phase_labels_with_json_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        argv = ["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:1:4", "--format", "json"]
        assert run(argv + ["--include-phase-labels", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: include_phase is a CSV column; JSON always has phase_labels\n"
        assert list(tmp_path.iterdir()) == []

    def test_linear_gamma_b_on_a_g_sweep_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:1:4", "--linear-gamma-b"]
        assert run(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: linear_gamma_b scales gamma_b along a 'ratio' sweep, got axis 'g'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["condensates"], ["squeeze", "--omega", "1"]])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_without_output_is_usage_error(self, argv, fmt, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--format", fmt]) == 2
        assert "--format needs -o" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["condensates"], ["squeeze", "--omega", "1"]])
    def test_output_without_format_writes_csv(self, argv, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert run(argv + ["-o", str(a)]) == 0
        assert run(argv + ["--format", "csv", "-o", str(b)]) == 0
        assert a.read_text().startswith("# ")
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_sweep_bound(self, capsys):
        assert run(["spectrum", "--sweep", "g:0.1:inf:3", "--probe", "0.2:1:4"]) == 2
        assert "finite" in capsys.readouterr().err
        assert run(["eigen", "--sweep", "g:nan:0.5:3"]) == 2

    def test_non_finite_probe_bound(self, capsys):
        assert run(["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:inf:4"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_model_params(self, capsys):
        assert run(["eigen", "--g", "nan", "--sweep", "omega_b:0.5:1:3"]) == 2
        assert run(["critical", "--omega-b", "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_bath(self, capsys):
        assert run(["eigen", "--gamma-a", "nan", "--sweep", "g:0:0.5:5"]) == 2
        assert run(["spectrum", "--s-b", "inf", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:1:4"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["squeeze", "--omega", "1", "--psi", "inf"], "quadrature angle psi must be finite, got inf"),
        (["altcoupling", "--f-b0=-inf"], "coupling weights must be finite, got 0.0, -inf"),
        (["squeeze", "--omega", "inf"], "probe frequency must be finite and positive, got inf"),
        (
            ["squeeze", "--omega", "1", "--theta", "nan"],
            "quadrature angle theta must be finite, got nan",
        ),
        (
            ["condensates", "--omega", "inf"],
            "bath frequency omega must be finite and positive, got inf",
        ),
        (["altcoupling", "--f-a0", "nan"], "coupling weights must be finite, got nan, 0.0"),
    ], ids=[f"argv{i}" for i in range(6)])
    def test_non_finite_command_flag(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert run(argv + ["-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (
            ["condensates", "--omega", "0"],
            "bath frequency omega must be finite and positive, got 0.0",
        ),
        (["squeeze", "--omega", "0"], "probe frequency must be finite and positive, got 0.0"),
        (["eigen", "--sweep", "g:0"], "--sweep expects axis:start:stop[:points], got 'g:0'"),
        (
            ["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.1"],
            "--probe expects start:stop[:points], got '0.1'",
        ),
        (["altcoupling", "--f-a0", "-1"], "coupling weights f_j(0) must be nonnegative"),
        (
            ["squeeze", "--g", "0.4", "--gamma-b", "0", "--theta", "0.3", "--omega", "1"],
            "the scattering matrix requires both port couplings positive",
        ),
    ], ids=[
        "condensates-omega", "squeeze-omega", "sweep-fields", "probe-fields", "altcoupling-f-a0",
        "two-port-squeeze-gamma-b",
    ])
    def test_command_value_checks_are_usage_errors(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert run(argv + ["-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_convergence_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        def explode(params):
            raise ConvergenceError("stuck", 0.1 + 0.0j, 1.0)

        monkeypatch.setattr(cli, "open_eigenfrequencies", explode)
        rc = run(["eigen", "--sweep", "g:0.1:0.3:4", "-o", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "stuck" in capsys.readouterr().err

    def test_convergence_failure_in_a_worker_exits_3(self, monkeypatch, tmp_path, capsys):
        # 17 points make two chunks, so two forked workers inherit the patch
        # and the error has to cross the process boundary.
        def explode(params):
            raise ConvergenceError("stuck", 0.1 + 0.0j, 1.0)

        monkeypatch.setattr(cli, "open_eigenfrequencies", explode)
        rc = run(["eigen", "--sweep", "g:0.1:0.3:17", "--parallel", "2",
                  "-o", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "sweep failed at g = 0.1: stuck" in err
        assert not (tmp_path / "x.csv").exists()

    def test_overflowing_zeta_exits_3_at_its_first_residual(self, tmp_path, capsys):
        # zeta is quartic, so it is infinite at this scale: the first Newton
        # residual already fails, with no NaN iterations spent.
        argv = ["eigen", "--omega-a", "1e100", "--omega-b", "1e100", "--gamma-a", "1e100",
                "--gamma-b", "1e100", "--s-a", "2", "--s-b", "2", "--sweep", "g:0:1e100:5"]
        assert run(argv + ["-o", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            "error: sweep failed at g = 0.0: residual is not finite"
            " (last iterate (8.660254037844386e+99-5e+99j), residual inf)\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_bath_exponent_above_two_exits_2(self, capsys):
        assert run(["eigen", "--s-a", "2.2", "--sweep", "g:0:0.5:5"]) == 2
        assert "upper half plane" in capsys.readouterr().err

    @pytest.mark.parametrize("probe, message", [
        ("0.2:1:1", "--probe needs at least 2 points"),
        ("0.2:1:x", "bad point count in --probe"),
        ("0.2:y:4", "bad bounds in --probe"),
        ("0.5:0.2:4", "--probe range must be increasing"),
        ("-0.5:0.2:4", "probe grid must be finite and positive, got -0.5"),
    ])
    def test_probe_range_checks(self, probe, message, tmp_path, capsys):
        # An unwritable -o would exit 4 if the probe were checked after the output opens.
        out = tmp_path / "missing" / "x.csv"
        assert run(["spectrum", "--sweep", "g:0.1:0.3:3", f"--probe={probe}", "-o", str(out)]) == 2
        assert message in capsys.readouterr().err

    def test_io_failure_exits_4(self, capsys):
        rc = run(["critical", "-o", "/nonexistent-dir/out.csv"])
        assert rc == 4
        assert "/nonexistent-dir" in capsys.readouterr().err

    def test_io_error_names_the_requested_path(self, capsys):
        errs = []
        for _ in range(2):
            assert run(["critical", "-o", "/nonexistent-dir/x.csv"]) == 4
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0] == "error: cannot write /nonexistent-dir/x.csv: No such file or directory\n"

    def test_atomic_write_leaves_no_temp_on_failure(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "out.csv"

        def boom(path, chunks):
            raise OSError(28, "No space left on device", str(target))

        monkeypatch.setattr(cli, "_atomic_write", boom)
        rc = run(["critical", "-o", str(target)])
        assert rc == 4
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_removes_its_temp_file_when_the_writer_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        target = tmp_path / "out.csv"

        def text_then_fail(*args, **kwargs):
            yield "# partial grid\n"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "spectrum_text", text_then_fail)
        rc = run(["spectrum", "--sweep", "g:0.1:0.3:3", "--probe", "0.2:1:4", "-o", str(target)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == f"error: cannot write {target}: No space left on device\n"
        assert not target.exists()
        assert list(tmp_path.glob(".opendicke-*.tmp")) == []
        assert list(tmp_path.iterdir()) == []
