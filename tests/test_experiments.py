"""Signal recipes, metrics, and the seeded replication runner."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import experiments, linalg, metrics, shrinkage
from svshrink.errors import DomainError, ParameterError, SvshrinkError
from svshrink.experiments import ExperimentConfig, FitMethod, SignalSpec
from svshrink.models import Gamma, Gaussian, Poisson


def small_config(**overrides):
    base = {
        "n": 20,
        "m": 25,
        "model": {"family": "gaussian", "tau": 0.2},
        "signal": {"type": "spike", "sigmas": [2.5], "recipe": "quadratic_profile"},
        "estimators": ["pca:rank=1,active=all"],
        "metrics": ["nmse"],
        "replications": 3,
        "root_seed": 7,
    }
    base.update(overrides)
    return base


class TestSignalRecipes:
    def test_quadratic_profile_contract(self):
        for n in (10, 100):
            p = experiments.quadratic_profile(n)
            assert np.all(p > 0)
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_profile_signal_is_positive(self):
        spec = SignalSpec.from_config({"type": "spike", "sigmas": [1.0]})
        x = experiments.generate_signal(spec, 100, 100)
        assert np.all(x > 0)

    def test_profile_vectors_orthonormal(self):
        u = experiments.profile_vectors(40, 5)
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-12)

    def test_cosine_vectors_orthonormal(self):
        u = experiments.cosine_vectors(32, 6)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-12)

    def test_generated_spectrum_matches_request(self):
        spec = SignalSpec.from_config(
            {"type": "spike", "sigmas": [4.0, 2.0, 1.0], "recipe": "cosine"}
        )
        x = experiments.generate_signal(spec, 30, 40)
        observed = linalg.svd(x).singular_values[:3]
        np.testing.assert_allclose(observed, [4.0, 2.0, 1.0], atol=1e-10)

    def test_spike_strengths_must_decrease(self):
        with pytest.raises(ParameterError):
            SignalSpec.from_config({"type": "spike", "sigmas": [1.0, 2.0]})

    def test_equal_spikes(self):
        spec = SignalSpec.from_config({"type": "equal_spikes", "gamma": 4.0, "rank": 3})
        strengths = spec.spike_strengths(100, 200)
        assert strengths == tuple([4.0 * 0.5**0.25] * 3)

    def test_positivity_enforced_for_count_families(self):
        spec = SignalSpec.from_config(
            {"type": "spike", "sigmas": [3.0, 2.0], "recipe": "cosine"}
        )
        with pytest.raises(DomainError):
            experiments.generate_signal(spec, 20, 20, Poisson())


class TestMetrics:
    def test_perfect_estimate_is_zero(self):
        x = np.ones((3, 3)) * 2.0
        assert metrics.metric("nmse", x, x) == 0.0
        assert metrics.metric("kls", x, x, Gamma(3.0)) == 0.0
        assert metrics.metric("kla", x, x) == 0.0
        assert metrics.metric("mse_eta", x, x, Gamma(3.0)) == 0.0

    def test_zero_estimate_nmse_is_one(self):
        x = np.random.default_rng(0).standard_normal((4, 5))
        assert metrics.metric("nmse", np.zeros_like(x), x) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_kls_value(self):
        value = metrics.kls_gamma(np.array([[2.0]]), np.array([[1.0]]), 1.0)
        assert value == pytest.approx(2.0 - np.log(2.0) - 1.0, rel=1e-12)

    def test_nmse_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 5))
        xhat = rng.standard_normal((5, 5))
        for a in (0.1, -3.0):
            assert metrics.nmse(a * xhat, a * x) == pytest.approx(metrics.nmse(xhat, x), rel=1e-12)


class TestRsnr:
    def test_constant_signal(self):
        assert experiments.rsnr(np.full((6, 6), 3.0), tau=1.0) == 0.0

    def test_unit_variance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 200))
        assert experiments.rsnr(x, 1.0) == pytest.approx(1.0, abs=0.02)

    def test_tau_homogeneity(self):
        x = np.random.default_rng(3).standard_normal((8, 8))
        assert experiments.rsnr(x, 2.0) == pytest.approx(experiments.rsnr(x, 1.0) / 2, rel=1e-12)

    def test_square_only(self):
        with pytest.raises(DomainError):
            experiments.rsnr(np.ones((3, 4)), 1.0)


class TestRunner:
    def test_deterministic_repeat(self):
        cfg = ExperimentConfig.from_config(small_config(replications=1))
        a = experiments.run_experiment(cfg)
        b = experiments.run_experiment(cfg)
        assert a.records == b.records
        assert json.dumps(a.summary_dict(), sort_keys=True) == json.dumps(
            b.summary_dict(), sort_keys=True
        )

    def test_thread_count_does_not_change_results(self):
        cfg = ExperimentConfig.from_config(
            small_config(replications=6, sweep={"parameter": "sigma1", "values": [1.0, 3.0]})
        )
        single = experiments.run_experiment(cfg, threads=1)
        pooled = experiments.run_experiment(cfg, threads=4)
        assert single.records == pooled.records

    def test_noiseless_limit(self):
        cfg = ExperimentConfig.from_config(
            small_config(
                model={"family": "gaussian", "tau": 1e-12},
                estimators=["pca:active=all"],
                replications=3,
            )
        )
        result = experiments.run_experiment(cfg)
        assert result.median(None, "pca:active=all", "nmse") < 1e-18

    def test_record_count_invariant(self):
        cfg = ExperimentConfig.from_config(
            small_config(
                replications=4,
                estimators=["pca:rank=1,active=all", "soft:objective=sure"],
                sweep={"parameter": "sigma1", "values": [1.5, 2.5, 3.5]},
            )
        )
        result = experiments.run_experiment(cfg)
        assert len(result.records) == 4 * 2 * 3

    def test_quantile_ordering(self):
        cfg = ExperimentConfig.from_config(small_config(replications=12))
        result = experiments.run_experiment(cfg)
        for cell in result.summaries:
            assert cell["q10"] <= cell["median"] <= cell["q90"]

    def test_csv_and_summary_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_config(small_config())
        result = experiments.run_experiment(cfg)
        result.write_csv(tmp_path / "records.csv")
        result.write_summary(tmp_path / "summary.json")
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == "sweep_param,estimator,replication,metric_name,value"
        assert len(lines) == 1 + len(result.records)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["cells"]

    def test_schema_violation_reports_location(self):
        bad = small_config(replications=0)
        with pytest.raises(ParameterError, match="replications"):
            ExperimentConfig.from_config(bad)

    def test_noise_level_sweeps_need_gaussian_noise(self):
        for parameter in ("tau", "rsnr"):
            bad = small_config(
                model={"family": "poisson"}, sweep={"parameter": parameter, "values": [0.5]}
            )
            with pytest.raises(ParameterError, match=f"the {parameter} sweep needs Gaussian noise"):
                ExperimentConfig.from_config(bad)

    def test_rank_cap_sweep_shares_data(self):
        cfg = ExperimentConfig.from_config(
            small_config(
                signal={"type": "spike", "sigmas": [3.0, 2.0], "recipe": "quadratic_profile"},
                estimators=["pca:active=all"],
                replications=2,
                sweep={"parameter": "rank_cap", "values": [1, 2, 20]},
            )
        )
        result = experiments.run_experiment(cfg)
        # More of the spectrum can only help on a noiseless-dominant spike;
        # at full cap the estimator reproduces Y, so the NMSE is noise-level.
        m1 = result.median(1.0, "pca:active=all", "nmse")
        m2 = result.median(2.0, "pca:active=all", "nmse")
        assert m2 < m1

    def test_oracle_shrinker_drops_undetectable_spikes(self):
        cfg = ExperimentConfig.from_config(
            small_config(
                n=60,
                m=60,
                model={"family": "gaussian", "tau": 1.0 / np.sqrt(60)},
                signal={"type": "spike", "sigmas": [0.5], "recipe": "cosine"},
                estimators=["oracle-shrinker"],
                replications=3,
            )
        )
        result = experiments.run_experiment(cfg)
        # Below the detectability threshold the oracle estimate is zero.
        assert result.median(None, "oracle-shrinker", "nmse") == pytest.approx(1.0, rel=1e-12)

    def test_gamma_sweep_with_kl_metrics(self):
        cfg = ExperimentConfig.from_config(
            small_config(
                model={"family": "gamma", "L": 3.0},
                signal={"type": "spike", "sigmas": [30.0], "recipe": "quadratic_profile"},
                estimators=["weighted:objective=sukls,rank=1,active=all"],
                metrics=["nmse", "kls"],
                replications=3,
            )
        )
        result = experiments.run_experiment(cfg)
        assert len(result.records) == 6
        assert all(np.isfinite(r["value"]) for r in result.records)


# -- edge shapes ---------------------------------------------------------------

EDGE_MODELS = {"gaussian": Gaussian(0.5), "gamma": Gamma(4.0), "poisson": Poisson()}


def edge_observation(family, kind, size, seed):
    """A 1 x m, m x 1 or all-zero observation drawn for ``family``."""
    shape = {"row": (1, size), "column": (size, 1), "zero": (size, size + 1)}[kind]
    if kind == "zero":
        return np.zeros(shape)
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return rng.standard_normal(shape)
    if family == "gamma":
        return rng.gamma(4.0, 0.5, shape)
    return rng.poisson(3.0, shape).astype(float)


def rebuild_from_info(info, fact, floor):
    """The estimate recomputed from what the fit reports, as a reader of the
    ``svshrink denoise`` sidecar would."""
    s = fact.singular_values
    if "lambda" in info:
        values = linalg.soft_threshold_values(s, info["lambda"])
    else:
        weights = np.zeros(fact.rank_bound)
        for k in info["active_set"]:
            weights[k - 1] = info["weights"][str(k)] if "weights" in info else 1.0
        values = linalg.weights_function(weights).values(s)
    return linalg.clamp(linalg.compose(fact, values), floor)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(EDGE_MODELS)),
    st.sampled_from(["pca", "soft", "weighted"]),
    st.sampled_from(["row", "column", "zero"]),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_edge_shape_fits_raise_typed_or_match_their_info(family, name, kind, size, seed, data):
    model = EDGE_MODELS[family]
    objective = None
    if name != "pca":
        objectives = shrinkage.VALID_OBJECTIVES[family]
        objective = data.draw(st.sampled_from(objectives), label="objective")
    method = experiments.resolve_method(FitMethod(name, objective), model)
    y = edge_observation(family, kind, size, seed)
    try:
        fact = linalg.svd(y)
        fn, info = experiments.fit_estimator(method, y, fact, model, np.random.default_rng(seed))
        estimate = linalg.reconstruct(fact, fn)
    except SvshrinkError:
        return
    floor = None if family == "gaussian" else linalg.DEFAULT_CLAMP_FLOOR
    assert fn.clamp_floor == floor
    assert np.all(np.isfinite(estimate))
    np.testing.assert_array_equal(estimate, rebuild_from_info(info, fact, floor))
