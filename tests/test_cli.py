"""Command-line interface: flag handling, exit codes, library equivalence."""

import json

import numpy as np
import pytest

from svshrink import activeset, cli, experiments, linalg, matrixio, risk, rmt, shrinkage
from svshrink.errors import DomainError
from svshrink.models import Gamma, Poisson

from helpers import rank_one_positive, spiked_signal


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

    def test_gamma_low_shape_is_domain_error(self, tmp_path):
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
        assert code == 2

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
        code = cli.main(
            [
                "denoise", "--input", str(path), "--family", "poisson", "--method", method,
                "--rank", "1", "--epsilon", epsilon, "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_flag_rejected(self, tmp_path, spiked_csv):
        path, _ = spiked_csv
        code = cli.main(["denoise", "--input", str(path), "--frobnicate", "1"])
        assert code == 1

    def test_binary_input(self, tmp_path):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((8, 6))
        path = tmp_path / "y.ssmx"
        matrixio.write_matrix_binary(path, y)
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


    @pytest.mark.parametrize("epsilon", ["0", "-1"])
    def test_nonpositive_epsilon_is_usage_error(self, tmp_path, epsilon):
        y = Poisson().sample(rank_one_positive(15, 10, 55.0), np.random.default_rng(1))
        path = tmp_path / "counts.csv"
        matrixio.write_matrix_csv(path, y)
        code = cli.main(
            ["activeset", "--input", str(path), "--family", "poisson", "--epsilon", epsilon]
        )
        assert code == 1


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
