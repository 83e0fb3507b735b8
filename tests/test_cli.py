"""Command-line interface: flag handling, exit codes, library equivalence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svshrink import activeset, cli, experiments, linalg, matrixio, risk, rmt, shrinkage
from svshrink.errors import DomainError
from svshrink.models import Gamma, Poisson

from helpers import rank_one_positive, spiked_signal, write_matrix_binary


def run_fresh(code: str, *args) -> subprocess.CompletedProcess:
    """``python -c code *args`` in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", code, *map(str, args)]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture
def spiked_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = spiked_signal(20, 30, [3.0, 2.0], rng)
    y = x + rng.standard_normal((20, 30)) / np.sqrt(30)
    path = tmp_path / "y.csv"
    matrixio.write_matrix_csv(path, y)
    return path, y


class TestDenoise:
    def test_gaussian_weights_match_library(self, tmp_path, spiked_csv):
        path, y = spiked_csv
        out = tmp_path / "xhat.csv"
        tau = 1.0 / np.sqrt(30)
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gaussian",
                "--tau", str(tau), "--method", "weights", "--objective", "sure",
                "--output", str(out),
            ]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "xhat.csv.json").read_text())
        fact = linalg.svd(y)
        report = activeset.active_set_gaussian(fact, tau)
        weights = shrinkage.weights_gaussian(fact, tau, report.selected)
        assert sidecar["active_set"] == list(report.selected)
        assert sorted(int(key) for key in sidecar["weights"]) == list(report.selected)
        for key, value in sidecar["weights"].items():
            assert value == pytest.approx(weights[int(key) - 1], rel=1e-12)
        denoised = matrixio.read_matrix_csv(out)
        expected = linalg.reconstruct(fact, linalg.weights_function(weights))
        np.testing.assert_allclose(denoised, expected, rtol=1e-10, atol=1e-12)
        assert sidecar["risk"]["kind"] == "SURE"

    def test_pca_rank_zero_gives_zero_matrix(self, tmp_path, spiked_csv):
        path, _ = spiked_csv
        out = tmp_path / "zero.csv"
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gaussian", "--tau", "0.2",
                "--method", "pca", "--rank", "0", "--output", str(out),
            ]
        )
        assert code == 0
        np.testing.assert_array_equal(matrixio.read_matrix_csv(out), np.zeros((20, 30)))

    def test_poisson_pukla_weight_passthrough(self, tmp_path):
        x = rank_one_positive(15, 10, 55.0)
        y = Poisson().sample(x, np.random.default_rng(1))
        path = tmp_path / "counts.csv"
        matrixio.write_matrix_csv(path, y)
        out = tmp_path / "xhat.csv"
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "poisson",
                "--method", "weights", "--objective", "pukla", "--rank", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "xhat.csv.json").read_text())
        expected = shrinkage.weight1_poisson_pukla(y, linalg.svd(y))
        assert sidecar["weights"]["1"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("method", ["weights", "pca"])
    def test_exact_poisson_risk_scores_the_fitted_estimator(self, tmp_path, method):
        # Below the exact-enumeration cap the reported PURE evaluates the
        # fitted map w * sigma on every one-count downdate.
        x = rank_one_positive(15, 10, 55.0)
        y = Poisson().sample(x, np.random.default_rng(1))
        path = tmp_path / "counts.csv"
        matrixio.write_matrix_csv(path, y)
        out = tmp_path / "xhat.csv"
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "poisson",
                "--method", method, "--objective", "pure", "--rank", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "xhat.csv.json").read_text())
        weights = np.zeros(10)
        for key, w in sidecar.get("weights", {"1": 1.0, "2": 1.0}).items():
            weights[int(key) - 1] = w
        expected = risk.pure_poisson(
            y, linalg.weights_function(weights, 1e-6), mode="exact"
        ).value
        assert sidecar["risk"]["divergence_kind"] == "exact"
        assert sidecar["risk"]["value"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("method", ["soft", "weights"])
    @pytest.mark.parametrize(
        "family, objective",
        [("gaussian", "sure"), ("gamma", "sukls"), ("gamma", "gsure"),
         ("poisson", "pure"), ("poisson", "pukla")],
    )
    def test_one_svd_per_request(self, tmp_path, monkeypatch, family, objective, method):
        # The fit, its Monte-Carlo probes and the reported risk all reuse the
        # observation's one factorization.  Two blocks on a near-zero
        # background make trial estimates reach the clamp floor, so SUKLS
        # takes its Monte-Carlo path too.
        rng = np.random.default_rng(2)
        x = np.full((12, 9), 0.01)
        x[:6, :5], x[6:, 5:] = 10.0, 4.0
        if family == "gaussian":
            y = x + 0.2 * rng.standard_normal(x.shape)
        elif family == "gamma":
            y = Gamma(4.0).sample(x, rng)
        else:
            y = Poisson().sample(x, rng)
        path = tmp_path / "y.csv"
        matrixio.write_matrix_csv(path, y)
        calls = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda matrix: calls.append(1) or svd(matrix))
        noise = {"gaussian": ["--tau", "0.2"], "gamma": ["--L", "4"], "poisson": []}[family]
        code = cli.main(
            ["denoise", "--input", str(path), "--family", family, *noise, "--method", method,
             "--objective", objective, "--output", str(tmp_path / "xhat.csv")]
        )
        assert code == 0
        assert len(calls) == 1

    def test_invalid_objective_combination_is_usage_error(self, tmp_path, spiked_csv):
        path, _ = spiked_csv
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gamma", "--L", "3",
                "--method", "weights", "--objective", "pure",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_gamma_low_shape_is_usage_error(self, tmp_path, capsys):
        # GSURE and SUKLS need L > 2: a flag check, made before the data is read.
        x = rank_one_positive(10, 8, 20.0)
        from svshrink.models import Gamma

        y = Gamma(1.5).sample(x, np.random.default_rng(2))
        path = tmp_path / "g.csv"
        matrixio.write_matrix_csv(path, y)
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gamma", "--L", "1.5",
                "--method", "weights", "--objective", "sukls",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "usage error: objective 'sukls' requires L > 2, got 1.5\n"
        assert not (tmp_path / "x.csv").exists()

    def test_missing_tau_is_usage_error(self, tmp_path, spiked_csv):
        path, _ = spiked_csv
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gaussian",
                "--method", "pca", "--rank", "1", "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("method", ["pca", "soft", "weights"])
    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_nonpositive_epsilon_is_usage_error(self, tmp_path, method, epsilon):
        y = Poisson().sample(rank_one_positive(15, 10, 55.0), np.random.default_rng(1))
        path = tmp_path / "counts.csv"
        matrixio.write_matrix_csv(path, y)
        rank = [] if method == "soft" else ["--rank", "1"]  # a soft fit takes no rank
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "poisson", "--method", method,
                *rank, "--epsilon", epsilon, "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert not (tmp_path / "x.csv").exists()

    def test_rank_of_a_soft_fit_is_usage_error(self, tmp_path, capsys, spiked_csv):
        path, _ = spiked_csv
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gaussian", "--tau", "0.2",
                "--method", "soft", "--rank", "1", "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "rank applies to pca, weighted and shrinker fits, not to soft" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rank_past_the_shape_is_usage_error_before_the_factorization(self, tmp_path, capsys):
        # The factorization refuses this input (sigma_1 = 4.9e200 has no
        # finite square), so the rank must be checked against the shape first.
        path = tmp_path / "y.ssmx"
        write_matrix_binary(path, np.full((4, 6), 1e200))
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gaussian", "--tau", "1",
                "--method", "pca", "--rank", "9", "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "usage error: --rank must be in [0, 4]\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "gaussian", "--tau", "-1"], "tau must be positive and finite, got -1.0"),
            (["--family", "gaussian", "--tau", "inf"], "tau must be positive and finite, got inf"),
            (["--family", "gamma", "--L", "0"], "Gamma shape L must be positive and finite, got 0.0"),
            (["--family", "gamma", "--L", "nan"], "Gamma shape L must be positive and finite, got nan"),
            (["--family", "gaussian", "--tau", "1", "--epsilon", "inf"],
             "--epsilon must be positive and finite, got inf"),
            (["--family", "gaussian", "--tau", "1e200"], "tau must have a finite square, got 1e+200"),
            (["--family", "gaussian", "--tau", "1", "--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
        ],
    )
    def test_bad_noise_or_floor_value_is_usage_error(self, tmp_path, capsys, spiked_csv, flags, message):
        path, _ = spiked_csv
        argv = ["denoise", "--input", str(path), "--method", "soft", "--output", str(tmp_path / "x.csv")]
        assert cli.main(argv + flags) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("method", ["soft", "weights", "pca"])
    def test_noise_energy_that_overflows_is_usage_error(self, tmp_path, capsys, method):
        # tau^2 is finite, but n*m*tau^2 over a 10x12 input is not.
        path = tmp_path / "y.csv"
        matrixio.write_matrix_csv(path, np.random.default_rng(3).standard_normal((10, 12)))
        argv = [
            "denoise", "--input", str(path), "--family", "gaussian", "--tau", "1e154",
            "--method", method, "--output", str(tmp_path / "x.csv"),
        ]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "usage error: the noise energy n*m*tau^2 of a 10x12 observation is not finite (tau=1e+154)\n"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_flag_rejected(self, tmp_path, spiked_csv):
        path, _ = spiked_csv
        code = cli.main(["denoise", "--input", str(path), "--frobnicate", "1"])
        assert code == 1

    def test_binary_input(self, tmp_path):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((8, 6))
        path = tmp_path / "y.ssmx"
        write_matrix_binary(path, y)
        out = tmp_path / "x.csv"
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "gaussian", "--tau", "0.5",
                "--method", "soft", "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()


class TestActiveSetCommand:
    def test_bulk_report(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x = spiked_signal(20, 30, [3.0], rng)
        y = x + rng.standard_normal((20, 30)) / np.sqrt(30)
        path = tmp_path / "y.csv"
        matrixio.write_matrix_csv(path, y)
        code = cli.main(
            [
                "activeset", "--input", str(path), "--family", "gaussian",
                "--tau", str(1 / np.sqrt(30)),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = activeset.active_set_gaussian(linalg.svd(y), 1 / np.sqrt(30))
        assert report["selected"] == list(expected.selected)


    def test_poisson_defaults_to_greedy_and_rejects_bulk(self, tmp_path, capsys):
        y = Poisson().sample(rank_one_positive(15, 10, 55.0), np.random.default_rng(1))
        path = tmp_path / "counts.csv"
        matrixio.write_matrix_csv(path, y)
        argv = ["activeset", "--input", str(path), "--family", "poisson"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        y = matrixio.read_matrix(path)
        expected = activeset.active_set_greedy(y, Poisson(), fact=linalg.svd(y))
        assert report == expected.to_json()
        assert cli.main(argv + ["--method", "bulk"]) == 1
        assert "needs Gaussian noise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, flags, y",
        [
            (
                "gaussian", ["--tau", str(1 / np.sqrt(30))],
                spiked_signal(20, 30, [3.0, 2.0], np.random.default_rng(5))
                + np.random.default_rng(6).standard_normal((20, 30)) / np.sqrt(30),
            ),
            ("gamma", ["--L", "4"], Gamma(4.0).sample(rank_one_positive(12, 15, 20.0), np.random.default_rng(7))),
            ("poisson", [], Poisson().sample(rank_one_positive(15, 10, 55.0), np.random.default_rng(1))),
        ],
    )
    def test_selected_is_the_active_set_of_each_denoise(self, tmp_path, capsys, family, flags, y):
        # The report and the soft and pca fits read one active set.
        path = tmp_path / "y.csv"
        matrixio.write_matrix_csv(path, y)
        given = ["--input", str(path), "--family", family, *flags]

        def selected(*extra):
            assert cli.main(["activeset", *given, *extra]) == 0
            return json.loads(capsys.readouterr().out)["selected"]

        def active_set(method, *extra):
            out = tmp_path / f"{method}.csv"
            assert cli.main(["denoise", *given, "--method", method, *extra, "--output", str(out)]) == 0
            return json.loads(out.with_suffix(".csv.json").read_text(encoding="utf-8"))["active_set"]

        default = selected()
        assert 0 < len(default) < min(y.shape)
        assert active_set("soft") == default
        assert active_set("pca") == default
        if family == "gaussian":
            assert selected("--method", "bulk") == active_set("pca", "--active-set", "bulk") == default

    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_nonpositive_epsilon_is_usage_error(self, tmp_path, epsilon):
        y = Poisson().sample(rank_one_positive(15, 10, 55.0), np.random.default_rng(1))
        path = tmp_path / "counts.csv"
        matrixio.write_matrix_csv(path, y)
        code = cli.main(
            ["activeset", "--input", str(path), "--family", "poisson", "--epsilon", epsilon]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags", [["--family", "gaussian", "--tau", "inf"], ["--family", "poisson", "--epsilon", "nan"]]
    )
    def test_non_finite_value_is_usage_error(self, spiked_csv, capsys, flags):
        path, _ = spiked_csv
        assert cli.main(["activeset", "--input", str(path)] + flags) == 1
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "# a comment, and a blank line\n\n"])
    def test_csv_without_rows_is_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert cli.main(["activeset", "--input", str(path), "--family", "poisson"]) == 2
        assert capsys.readouterr().err == f"error: matrix CSV {path} contains no data rows\n"

    @pytest.mark.parametrize("flags", [["--family", "gaussian"], ["--family", "poisson", "--epsilon", "0"]])
    def test_flags_are_checked_before_the_input_is_read(self, tmp_path, capsys, flags):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        assert cli.main(["activeset", "--input", str(path)] + flags) == 1
        assert capsys.readouterr().err.startswith("usage error: --")


def run_on_constant(tmp_path, flags, entry):
    """``svshrink`` with ``flags`` on a 2x3 matrix of ``entry``, whose only
    nonzero singular value is ``sqrt(6) * entry``; the exit code."""
    path = tmp_path / "y.csv"
    matrixio.write_matrix_csv(path, np.full((2, 3), entry))
    out = ["--output", str(tmp_path / "x.csv")] if flags[0] == "denoise" else []
    return cli.main(flags[:1] + ["--input", str(path)] + flags[1:] + out)


@pytest.mark.parametrize(
    "flags",
    [
        ["denoise", "--family", "gaussian", "--tau", "1", "--method", "soft"],
        ["denoise", "--family", "gamma", "--L", "5", "--method", "weights"],
        ["activeset", "--family", "poisson"],
    ],
)
def test_spectrum_that_overflows_is_numerical_error(tmp_path, capsys, flags):
    # Finite entries whose largest singular value, sqrt(6) * 1e308, is not.
    assert run_on_constant(tmp_path, flags, 1e308) == 2
    assert capsys.readouterr().err == (
        "error: the largest singular value inf exceeds 1.341e+154, "
        "the largest whose square is finite in double precision\n"
    )
    assert not (tmp_path / "x.csv").exists()


SQUARE_OVERFLOW_FLAGS = [
    ["denoise", "--family", "gamma", "--L", "5", "--method", "weights"],
    ["denoise", "--family", "gaussian", "--tau", "1", "--method", "soft"],
    ["denoise", "--family", "gaussian", "--tau", "1", "--method", "weights"],
    ["denoise", "--family", "gamma", "--L", "5", "--method", "soft"],
    ["denoise", "--family", "poisson", "--method", "weights"],
    ["activeset", "--family", "poisson"],
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", SQUARE_OVERFLOW_FLAGS)
def test_spectrum_whose_square_overflows_is_numerical_error(tmp_path, capsys, flags):
    # sigma_1 = sqrt(6) * 5e307 = 1.22e308 is finite, but its square is not.
    assert run_on_constant(tmp_path, flags, 5e307) == 2
    assert capsys.readouterr().err == (
        "error: the largest singular value 1.22474e+308 exceeds 1.341e+154, "
        "the largest whose square is finite in double precision\n"
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", SQUARE_OVERFLOW_FLAGS)
def test_spectrum_just_below_the_square_limit_runs(tmp_path, capsys, flags):
    # sigma_1 = sqrt(6) * 5.47e153 = 1.3399e154, just below sqrt(float max).
    assert run_on_constant(tmp_path, flags, 5.47e153) == 0
    assert capsys.readouterr().err == ""
    if flags[0] == "denoise":
        assert np.all(np.isfinite(matrixio.read_matrix(tmp_path / "x.csv")))


class TestWithoutScipy:
    """No command loads SciPy: NumPy is the package's only runtime dependency."""

    def test_importing_the_cli_loads_no_scipy(self):
        done = run_fresh("import sys, svshrink.cli; print([m for m in sys.modules if m.startswith('scipy')])")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_every_command_runs_with_scipy_blocked(self, tmp_path, spiked_csv):
        # The soft and weight fits of Gamma and Poisson noise and their
        # experiments' weighted estimators run the greedy active set, which
        # scores penalized likelihoods.
        inputs = {"gaussian": (spiked_csv[0], ["--tau", "0.2"])}
        rng = np.random.default_rng(4)
        for family, model, flags in [("gamma", Gamma(5.0), ["--L", "5"]), ("poisson", Poisson(), [])]:
            inputs[family] = (tmp_path / f"{family}.csv", flags)
            matrixio.write_matrix_csv(inputs[family][0], model.sample(rank_one_positive(12, 10, 40.0), rng))
        base = {"n": 12, "m": 15, "signal": {"type": "spike", "recipe": "quadratic_profile"},
                "replications": 1, "root_seed": 5}
        configs = {
            "gaussian": dict(
                TestExperimentCommand.CONFIG, replications=2,
                estimators=["pca:rank=1,active=all", "soft:objective=sure", "weighted:objective=sure"],
            ),
            "gamma": dict(base, model={"family": "gamma", "L": 4}, estimators=["weighted:objective=gsure"],
                          signal=dict(base["signal"], sigmas=[60.0])),
            "poisson": dict(base, model={"family": "poisson"}, estimators=["weighted:objective=pure"],
                            signal=dict(base["signal"], sigmas=[150.0])),
        }
        commands = [["asymptotics", "--c", "0.5", "--sigma", "2"]]
        for family, (path, flags) in inputs.items():
            cfg = tmp_path / f"{family}.json"
            cfg.write_text(json.dumps(configs[family]))
            commands.append(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / family)])
            commands.append(["activeset", "--input", str(path), "--family", family, *flags,
                             "--output", str(tmp_path / f"{family}-active.json")])
            commands += [
                ["denoise", "--input", str(path), "--family", family, *flags,
                 "--method", method, "--output", str(tmp_path / f"{family}-{method}.csv")]
                for method in ("soft", "weights")
            ]
        code = (
            "import json, sys; sys.modules['scipy'] = None; from svshrink import cli; "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "sys.exit(f'exit codes {codes}' if any(codes) else 0)"
        )
        done = run_fresh(code, json.dumps(commands))
        assert done.returncode == 0, done.stderr
        for family, kind in [("gaussian", "SURE"), ("gamma", "SUKLS"), ("poisson", "PUKLA")]:
            assert (tmp_path / family / "records.csv").exists()
            assert json.loads((tmp_path / f"{family}-active.json").read_text())["selected"]
            for method in ("soft", "weights"):
                sidecar = json.loads((tmp_path / f"{family}-{method}.csv.json").read_text())
                assert "active_set" in sidecar
                assert sidecar["risk"]["kind"] == kind


class TestExperimentCommand:
    CONFIG = {
        "n": 15,
        "m": 20,
        "model": {"family": "gaussian", "tau": 0.2},
        "signal": {"type": "spike", "sigmas": [2.5], "recipe": "quadratic_profile"},
        "estimators": ["pca:rank=1,active=all"],
        "metrics": ["nmse"],
        "replications": 4,
        "root_seed": 11,
        "sweep": {"parameter": "sigma1", "values": [1.5, 3.0]},
    }

    def test_the_parser_keeps_no_state_between_calls(self, tmp_path, monkeypatch, capsys):
        # One parser serves every call in a process.
        assert cli._build_parser() is cli._build_parser()
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        argv = ["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "a"), "--threads", "2"]
        assert cli.main(argv) == 0
        assert cli.main(["experiment", "--config", str(cfg)]) == 1
        assert "--out-dir" in capsys.readouterr().err
        seen = []
        for name in ("experiment", "asymptotics"):
            monkeypatch.setitem(cli._COMMANDS, name, lambda args: seen.append(vars(args)) or 0)
        assert cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        assert cli.main(["asymptotics", "--c", "0.5", "--sigma", "2"]) == 0
        assert cli.main(["asymptotics", "--c", "0.5", "--y", "3"]) == 0
        assert seen == [
            {"command": "experiment", "config": str(cfg), "out_dir": str(tmp_path / "b"), "threads": 1},
            {"command": "asymptotics", "c": 0.5, "sigma": 2.0, "y": None},
            {"command": "asymptotics", "c": 0.5, "sigma": None, "y": 3.0},
        ]

    def test_missing_config_file(self, tmp_path):
        code = cli.main(
            ["experiment", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_schema_violation_is_usage_error(self, tmp_path):
        bad = dict(self.CONFIG, replications=0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1

    def test_noise_level_sweep_on_poisson_is_usage_error(self, tmp_path):
        bad = dict(
            self.CONFIG,
            model={"family": "poisson"},
            sweep={"parameter": "tau", "values": [0.1, 0.2]},
        )
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert not (tmp_path / "o").exists()

    def test_bad_estimator_tag_is_usage_error(self, tmp_path, capsys):
        bad = dict(self.CONFIG, estimators=["pca:rank=1,active=all", "bogus"])
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: estimator tag 'bogus': unknown estimator")
        assert not (tmp_path / "o").exists()

    def test_faulty_data_point_is_usage_error(self, tmp_path, capsys):
        bad = dict(self.CONFIG, sweep={"parameter": "sigma1", "values": [3.0, -1.0]})
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: sweep value sigma1=-1.0: ")
        assert not (tmp_path / "o").exists()

    def test_repeated_sweep_value_is_usage_error(self, tmp_path, capsys):
        bad = dict(self.CONFIG, sweep={"parameter": "sigma1", "values": [2.0, 3.0, 2.0]})
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "usage error: sigma1 sweep values must be distinct, got [2.0]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_noise_level_is_usage_error(self, tmp_path, capsys):
        bad = dict(self.CONFIG, model={"family": "gaussian", "tau": float("inf")})
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))  # written as Infinity, which json reads back
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "usage error: tau must be positive and finite, got inf\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "estimator", ["soft:objective=sure", "weighted:objective=sure,active=bulk,rank=1"]
    )
    def test_noise_level_whose_square_overflows_is_usage_error(self, tmp_path, capsys, estimator):
        model = {"family": "gaussian", "tau": 1e200}
        bad = dict(self.CONFIG, n=10, m=10, model=model, estimators=[estimator])
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "usage error: tau must have a finite square, got 1e+200\n"
        assert not (tmp_path / "o").exists()

    def test_noise_energy_that_overflows_is_usage_error(self, tmp_path, capsys):
        model = {"family": "gaussian", "tau": 1e154}
        bad = dict(self.CONFIG, n=10, m=10, model=model, estimators=["soft", "weighted", "pca"])
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: sweep value sigma1=1.5: the noise energy n*m*tau^2 of a 10x10 observation "
            "is not finite (tau=1e+154)\n"
        )
        assert not (tmp_path / "o").exists()

    BIG = 10**400  # json writes and reads it as an integer literal past the float range

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"model": {"family": "gaussian", "tau": BIG}}, "$.model.tau"),
            ({"model": {"family": "gamma", "L": BIG}}, "$.model.L"),
            ({"signal": {"type": "equal_spikes", "gamma": BIG, "rank": 1}, "sweep": None}, "$.signal.gamma"),
            ({"signal": {"type": "spike", "sigmas": [BIG, 1.0]}}, "$.signal.sigmas[0]"),
            ({"signal": {"type": "explicit", "entries": [[1.0, BIG]]}, "sweep": None}, "$.signal.entries[0][1]"),
            ({"sweep": {"parameter": "sigma1", "values": [1.5, BIG]}}, "$.sweep.values[1]"),
            ({"clamp_floor": BIG}, "$.clamp_floor"),
        ],
    )
    def test_integer_beyond_the_float_range_is_usage_error(self, tmp_path, capsys, overrides, path):
        bad = {k: v for k, v in dict(self.CONFIG, **overrides).items() if v is not None}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: invalid experiment config at {path}: "
            "an integer outside the float range is not a number\n"
        )
        assert not (tmp_path / "o").exists()

    def test_threads_do_not_change_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert cli.main(["experiment", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert (
            cli.main(
                ["experiment", "--config", str(cfg), "--out-dir", str(out8), "--threads", "8"]
            )
            == 0
        )
        assert (out1 / "records.csv").read_bytes() == (out8 / "records.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out8 / "summary.json").read_bytes()

    def test_too_many_failed_tasks_exit_2(self, tmp_path, monkeypatch, capsys):
        def failing_fit(*args, **kwargs):
            raise DomainError("the fit failed")

        monkeypatch.setattr(experiments, "fit_estimator", failing_fit)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code = cli.main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 8 of 8 replication tasks failed")
        assert "the fit failed" in err

    def test_runs_where_jsonschema_cannot_be_imported(self, tmp_path):
        # NumPy is the package's only runtime dependency.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, replications=1)))
        code = (
            "import sys; sys.modules['jsonschema'] = None; from svshrink import cli; "
            "sys.exit(cli.main(['experiment', '--config', sys.argv[1], '--out-dir', sys.argv[2]]))"
        )
        done = run_fresh(code, cfg, tmp_path / "o")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "o" / "records.csv").exists()

    def test_bundled_fig2_config_validates(self):
        raw = json.loads(open("configs/fig2.json").read())
        experiments_config = __import__("svshrink.experiments", fromlist=["ExperimentConfig"])
        cfg = experiments_config.ExperimentConfig.from_config(raw)
        assert cfg.sweep_parameter == "sigma1"
        assert cfg.replications == 100


class TestAsymptoticsCommand:
    def test_fields_match_library(self, capsys):
        assert cli.main(["asymptotics", "--c", "1", "--sigma", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho"] == pytest.approx(2.5, rel=1e-12)
        assert out["shrinker_gd"] == pytest.approx(rmt.shrinker_gd(2.5, 1.0), rel=1e-12)
        assert out["shrinker_sigma"] == pytest.approx(rmt.shrinker_sigma(2.0, 1.0), rel=1e-12)
        assert out["optimal_weight"] == pytest.approx(
            rmt.asymptotic_optimal_weight(2.0, 1.0), rel=1e-12
        )
        assert out["g_mp_at_rho_sq"] == pytest.approx(0.2, rel=1e-12)

    def test_edge_case_reports_zero_shrinkage(self, capsys):
        assert cli.main(["asymptotics", "--c", "1", "--sigma", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho"] == pytest.approx(2.0, rel=1e-12)
        assert out["shrinker_gd"] == 0.0
        assert out["shrinker_sigma"] == 0.0
        assert out["optimal_weight"] == 0.0

    def test_aspect_ratio_out_of_range_is_domain_error(self):
        assert cli.main(["asymptotics", "--c", "1.5", "--sigma", "2"]) == 2

    def test_observed_value_inside_bulk(self, capsys):
        assert cli.main(["asymptotics", "--c", "0.25", "--y", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sigma"] is None
        assert out["shrinker_gd"] == 0.0
        assert out["g_mp_at_rho_sq"] is None

    @pytest.mark.parametrize(
        "flags",
        [["--c", "nan", "--y", "1"], ["--c", "0.5", "--sigma", "nan"], ["--c", "0.5", "--sigma", "inf"],
         ["--c", "0.5", "--y", "nan"], ["--c", "0.5", "--y", "inf"], ["--c", "0.5", "--y=-inf"]],
    )
    def test_non_finite_flag_is_usage_error(self, capsys, flags):
        assert cli.main(["asymptotics"] + flags) == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, field",
        [(["--sigma", "1e-300"], "rho"), (["--sigma", "1e200"], "rho"), (["--y", "1e200"], "sigma")],
    )
    def test_field_outside_the_float_range_is_numerical_error(self, capsys, flags, field):
        assert cli.main(["asymptotics", "--c", "0.5"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: asymptotics field {field!r} is not finite")
        assert captured.out == ""
