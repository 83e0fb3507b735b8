"""Signal recipes, metrics, and the seeded replication runner."""

import copy
import functools
import json
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import experiments, linalg, metrics, shrinkage
from svshrink.errors import DomainError, NumericalError, ParameterError, SvshrinkError
from svshrink.experiments import ExperimentConfig, FitMethod, SignalSpec
from svshrink.models import Gamma, Gaussian, Poisson

from helpers import quadratic_profile


def test_every_committed_config_loads():
    paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert {p.name for p in paths} >= {"fig2.json", "fig5.json", "gamma.json", "poisson.json"}
    for path in paths:
        ExperimentConfig.from_config(json.loads(path.read_text()))


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


def direct_config(**fields):
    """An ExperimentConfig built in Python, with ``fields`` replaced."""
    base = dict(
        n=10, m=10, model=Gaussian(0.1), signal=SignalSpec("spike", sigmas=(2.0,)),
        estimators=("pca",), replications=1, root_seed=0,
    )
    return ExperimentConfig(**dict(base, **fields))


class TestSignalRecipes:
    def test_quadratic_profile_contract(self):
        # The test signals' profile is the recipe's first column.
        for n in (10, 100):
            p = quadratic_profile(n)
            assert np.all(p > 0)
            assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(experiments.profile_vectors(n, 1)[:, 0], p, rtol=1e-13)

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


class TestSignalSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "spike", "sigmas": (2.0,), "recipe": "nope"}, "unknown signal recipe 'nope'"),
            ({"kind": "bogus", "sigmas": (2.0,)}, "unknown signal type 'bogus'"),
            ({"kind": "equal_spikes", "gamma": 2.0}, "positive integer rank, got None"),
            ({"kind": "equal_spikes", "gamma": 2.0, "rank": 0}, "positive integer rank, got 0"),
            ({"kind": "equal_spikes", "gamma": 2.0, "rank": 1.5}, "positive integer rank, got 1.5"),
            ({"kind": "equal_spikes", "rank": 2}, "positive finite gamma, got None"),
            # Numbers are JSON numbers, as in a config file.
            ({"kind": "spike", "sigmas": ("3",)}, r"at \$\.signal\.sigmas\[0\]: '3' is not of type 'number'"),
            ({"kind": "spike", "sigmas": (3.0, True)}, r"sigmas\[1\]: True is not of type 'number'"),
            ({"kind": "explicit", "entries": [["1", "2"], [True, "4.5"]]}, r"entries\[0\]\[0\]: '1' is not"),
        ],
    )
    def test_direct_fields_are_checked(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(
                n=10, m=10, model=Gaussian(0.1), signal=SignalSpec(**kwargs),
                estimators=("pca",), replications=1, root_seed=0,
            )

    @pytest.mark.parametrize("floor", ["3", True])
    def test_a_direct_clamp_floor_is_a_json_number(self, floor):
        with pytest.raises(ParameterError, match=rf"\$\.clamp_floor: {floor!r} is not of type 'number'"):
            ExperimentConfig(
                n=10, m=10, model=Gaussian(0.1), signal=SignalSpec("spike", sigmas=(2.0,)),
                estimators=("pca",), replications=1, root_seed=0, clamp_floor=floor,
            )


class TestRunner:
    @pytest.mark.parametrize(
        "sweep",
        [{"parameter": "sigma1", "values": [3.0, 1.5, 2.5]}, {"parameter": "rank_cap", "values": [2, 0, 1]}],
    )
    def test_summary_cells_follow_the_config_order(self, monkeypatch, sweep):
        # Sweep values, tags and metrics all out of sorted order, and the
        # first task of the first point fails, so that point's cells start
        # at its second replication.
        cfg = ExperimentConfig.from_config(
            small_config(
                signal={"type": "spike", "sigmas": [2.0, 1.0]},
                estimators=["soft", "pca:rank=1,active=all", "weighted"],
                metrics=["se", "nmse"],
                replications=10,
                sweep=sweep,
            )
        )
        replication_records = experiments._replication_records

        def fail_first(config, point_idx, rep):
            if (point_idx, rep) == (0, 0):
                raise DomainError("the first task failed")
            return replication_records(config, point_idx, rep)

        monkeypatch.setattr(experiments, "_replication_records", fail_first)
        result = experiments.run_experiment(cfg)
        assert len(result.failures) == 1
        expected = [
            (float(v), tag, metric)
            for v in sweep["values"]
            for tag in cfg.estimators
            for metric in cfg.metrics
        ]
        cells = [(c["sweep_param"], c["estimator"], c["metric_name"]) for c in result.summaries]
        assert cells == expected
        first = sweep["values"][0]
        counts = [c["count"] for c in result.summaries]
        if sweep["parameter"] == "rank_cap":
            assert counts == [9] * len(expected)
        else:
            assert counts == [9 if c[0] == first else 10 for c in cells]

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"estimators": ["bogus"]}, "unknown estimator"),
            ({"estimators": ["weighted:objective=pure"]}, "not defined for the gaussian family"),
            ({"estimators": ["pca:rank=abc"]}, "'pca:rank=abc'.*nonnegative integer"),
            ({"estimators": ["pca:rank=-1"]}, "'pca:rank=-1'.*nonnegative integer"),
            ({"estimators": ["shrinker:rank=-1"]}, "nonnegative integer"),
            ({"estimators": ["oracle-soft:loss=kls"]}, "kls metric is implemented for the Gamma"),
            ({"metrics": ["kls"]}, "kls metric is implemented for the Gamma"),
            ({"metrics": ["nmse", "mse_eta"]}, "mse_eta metric is implemented for the Gamma"),
            ({"sweep": {"parameter": "rsnr", "values": [1.0]}}, "square signal"),
            ({"sweep": {"parameter": "true_rank", "values": [1]}}, "'equal_spikes' signal"),
            ({"sweep": {"parameter": "rank_cap", "values": [1, -1]}}, "integers >= 0"),
            ({"sweep": {"parameter": "rank_cap", "values": [1, 2, 1]}}, r"distinct, got \[1.0\]"),
            ({"sweep": {"parameter": "tau", "values": [0.2, 0.1, 0.2, 0.1]}}, r"got \[0.1, 0.2\]"),
            # json reads Infinity and NaN, and the schema's bounds let them through.
            ({"model": {"family": "gaussian", "tau": float("inf")}}, "tau must be positive and finite, got inf"),
            ({"model": {"family": "gamma", "L": float("nan")}}, "L must be positive and finite, got nan"),
            ({"clamp_floor": float("inf")}, "clamp_floor must be positive and finite, got inf"),
            ({"signal": {"type": "spike", "sigmas": [float("inf")]}}, r"positive finite strengths, got \[inf\]"),
            ({"signal": {"type": "equal_spikes", "gamma": float("inf"), "rank": 1}}, "finite gamma, got inf"),
            # Options the fit would ignore.
            ({"estimators": ["soft:rank=1"]}, "'soft:rank=1'.*rank applies to pca, weighted and shrinker"),
            ({"estimators": ["oracle-soft:rank=2"]}, "rank applies to .* not to oracle-soft"),
            ({"estimators": ["oracle-weights:rank=2"]}, "rank applies to .* not to oracle-weights"),
            ({"estimators": ["oracle-shrinker:rank=2"]}, "rank applies to .* not to oracle-shrinker"),
            ({"estimators": ["pca:loss=se"]}, "'pca:loss=se'.*loss applies to oracle-soft fits only"),
            ({"estimators": ["weighted:loss=nmse"]}, "loss applies to oracle-soft fits only, not to weighted"),
            # Unknown keys, which would otherwise leave the default in place.
            (
                {"signal": {"type": "spike", "sigmas": [2.5], "recipie": "cosine"}},
                r"at \$\.signal: Additional properties are not allowed \('recipie' was unexpected\)",
            ),
            ({"model": {"family": "gaussian", "tau": 0.2, "sigma": 1}}, r"at \$\.model: .*'sigma' was unexpected"),
            # A repeated tag or metric would pool its records into one cell.
            ({"estimators": ["soft", "pca", "soft"]}, r"estimators must be distinct, got \['soft'\]"),
            ({"metrics": ["nmse", "se", "nmse"]}, r"metrics must be distinct, got \['nmse'\]"),
            ({"signal": {"type": "equal_spikes", "rank": 2}}, "positive finite gamma, got None"),
            ({"signal": {"type": "equal_spikes", "gamma": 2.0}}, "positive integer rank, got None"),
            # One rule per field: the JSON form at its path, each value in the constructor.
            ({"n": 0}, r"n must be an integer in \[1, 500\], got 0"),
            ({"replications": "3"}, r"replications must be an integer in \[1, 2000\], got '3'"),
            ({"model": {"family": "laplace"}}, "model.family: 'laplace' is not one of .'gaussian'"),
            ({"sweep": {"parameter": "rank_cap"}}, "sweep: 'values' is a required property"),
            ({"metrics": []}, "metrics must not be empty"),
            ({"extra": 1}, "config at .: Additional properties are not allowed .'extra' was unexpected"),
            # Metric names match exactly.
            ({"metrics": ["NMSE"]}, "unknown metric 'NMSE'"),
            ({"estimators": ["oracle-soft:loss=SE"]}, "'oracle-soft:loss=SE': unknown metric 'SE'"),
            # So do objective names, as `svshrink denoise --objective` reads them.
            ({"estimators": ["soft:objective=SURE"]}, "'soft:objective=SURE': objective 'SURE' is not defined"),
            # Explicit entries are JSON numbers: NumPy would read these as numbers.
            (
                {"signal": {"type": "explicit", "entries": [["1", "2"], [True, "4.5"]]}},
                r"at \$\.signal\.entries\[0\]\[0\]: '1' is not of type 'number'",
            ),
            (
                {"signal": {"type": "explicit", "entries": [[1.0, 2.0], [True, 4.5]]}},
                r"at \$\.signal\.entries\[1\]\[0\]: True is not of type 'number'",
            ),
        ],
    )
    def test_invalid_combinations_are_rejected_at_load(self, overrides, message):
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig.from_config(small_config(**{"n": 20, "m": 30, **overrides}))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"replications": 0}, r"replications must be an integer in \[1, 2000\], got 0"),
            ({"replications": -3}, "replications must be an integer .*, got -3"),
            ({"estimators": ()}, "estimators must not be empty"),
            ({"metrics": ()}, "metrics must not be empty"),
            ({"n": 10.5}, r"n must be an integer in \[1, 500\], got 10.5"),
            ({"n": 600}, "n must be an integer .*, got 600"),
            ({"m": True}, "m must be an integer .*, got True"),
            ({"root_seed": -1}, r"root_seed must be an integer in \[0, inf\], got -1"),
            ({"sweep_parameter": "bogus"}, "unknown sweep parameter 'bogus'"),
            ({"sweep_parameter": "tau"}, "tau sweep values must not be empty"),
            ({"sweep_values": (1.0, 2.0)}, "unknown sweep parameter None"),
            (
                {"sweep_parameter": "sigma1", "sweep_values": (3.0, "3")},
                r"at \$\.sweep\.values\[1\]: '3' is not of type 'number'",
            ),
            ({"sweep_parameter": "sigma1", "sweep_values": (True,)}, r"values\[0\]: True is not of type"),
        ],
    )
    def test_direct_construction_checks_every_field(self, fields, message):
        base = dict(
            n=10, m=10, model=Gaussian(0.1), signal=SignalSpec("spike", sigmas=(2.0,)),
            estimators=("pca",), replications=1, root_seed=0,
        )
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig(**dict(base, **fields))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SignalSpec("spike", sigmas=3.0), r"at \$\.signal\.sigmas: 3\.0 is not of type 'array'"),
            (
                lambda: direct_config(sweep_parameter="tau", sweep_values=0.5),
                r"at \$\.sweep\.values: 0\.5 is not of type 'array'",
            ),
            # A string is not read as its letters.
            (lambda: direct_config(estimators="pca"), r"at \$\.estimators: 'pca' is not of type 'array'"),
            (lambda: direct_config(metrics="nmse"), r"at \$\.metrics: 'nmse' is not of type 'array'"),
        ],
    )
    def test_scalar_or_string_for_an_array_is_parameter_error(self, build, message):
        with pytest.raises(ParameterError, match=message):
            build()

    def test_integral_floats_are_integers(self):
        cfg = ExperimentConfig.from_config(small_config(n=20.0, replications=3.0, root_seed=7.0))
        assert (cfg.n, cfg.replications, cfg.root_seed) == (20, 3, 7)
        assert all(type(v) is int for v in (cfg.n, cfg.replications, cfg.root_seed))
        assert cfg == ExperimentConfig.from_config(small_config(n=20))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sweep": {"parameter": "tau", "values": [0.1, 0]}}, "tau=0.0: tau must be positive"),
            ({"sweep": {"parameter": "tau", "values": [-1]}}, "tau=-1.0: tau must be positive"),
            ({"sweep": {"parameter": "rsnr", "values": [0]}}, "rsnr=0.0: rsnr values must be positive"),
            ({"sweep": {"parameter": "rsnr", "values": [-2]}}, "rsnr=-2.0: rsnr values must be positive"),
            ({"sweep": {"parameter": "sigma1", "values": [0.5]}}, "sigma1=0.5: .*strictly decreasing"),
            ({"sweep": {"parameter": "sigma1", "values": [-3.0]}}, r"sigma1=-3.0: .*positive.*\[-3.0, 1.0\]"),
            (
                {
                    "signal": {"type": "equal_spikes", "gamma": 2.0, "rank": 1},
                    "sweep": {"parameter": "true_rank", "values": [13]},
                },
                "true_rank=13.0: cannot build 13 orthonormal vectors",
            ),
            (
                {"signal": {"type": "spike", "sigmas": [13.0 - k for k in range(13)]}},
                "the signal: cannot build 13 orthonormal vectors",
            ),
            (
                {"signal": {"type": "explicit", "entries": [[1.0, 2.0], [3.0, 4.0]]}},
                r"the signal: explicit signal has shape \(2, 2\), expected \(12, 12\)",
            ),
            (
                {"signal": {"type": "explicit", "entries": [[float("nan")] * 12] * 12}},
                "the signal: explicit signal entries must be finite",
            ),
            ({"signal": {"type": "explicit", "entries": [[1.0, 2.0], [3.0]]}}, "numeric matrix"),
            ({"signal": {"type": "explicit", "entries": [["a", "b"]]}}, "numeric matrix"),
            (
                {
                    "model": {"family": "poisson"},
                    "signal": {"type": "spike", "sigmas": [3.0, 2.9], "recipe": "cosine"},
                },
                "the signal: the generated signal must be strictly positive",
            ),
            ({"signal": {"type": "explicit", "entries": [1.0, 2.0]}}, "numeric matrix, got 1 dimensions"),
            ({"sweep": {"parameter": "tau", "values": [0.1, float("inf")]}}, "tau=inf: .*positive and finite"),
            ({"sweep": {"parameter": "tau", "values": [float("nan")]}}, "tau=nan: .*positive and finite"),
            ({"sweep": {"parameter": "rsnr", "values": [float("inf")]}}, "rsnr=inf: .*positive and finite"),
            ({"sweep": {"parameter": "sigma1", "values": [float("inf")]}}, "sigma1=inf: .*positive finite strengths"),
            # Finite entries whose squares overflow: every metric would read inf or nan.
            (
                {"signal": {"type": "equal_spikes", "gamma": 1e308, "rank": 2, "recipe": "cosine"}},
                r"the signal: the signal's squared Frobenius norm is not finite \(inf\)",
            ),
            ({"sweep": {"parameter": "sigma1", "values": [1e308]}}, r"sigma1=1e\+308: .*norm is not finite"),
            # A noise energy n*m*tau^2 that overflows would run the fits on inf/nan spectra.
            ({"model": {"family": "gaussian", "tau": 1e154}}, r"the signal: the noise energy n\*m\*tau\^2 of a 12x12"),
            ({"sweep": {"parameter": "tau", "values": [0.1, 1e154]}}, r"tau=1e\+154: the noise energy .* not finite"),
            ({"sweep": {"parameter": "rsnr", "values": [5e-155]}}, r"rsnr=5e-155: the noise energy .* not finite"),
        ],
    )
    def test_faulty_data_points_are_rejected_at_load(self, overrides, message):
        # Signal generation is deterministic, so each fault shows at load.
        base = small_config(
            n=12, m=12, replications=2,
            signal={"type": "spike", "sigmas": [3.0, 1.0], "recipe": "quadratic_profile"},
        )
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig.from_config(dict(base, **overrides))

    def test_each_signal_is_built_once_at_load(self, monkeypatch):
        calls = []
        generate = experiments.generate_signal
        monkeypatch.setattr(
            experiments, "generate_signal", lambda *a: calls.append(a) or generate(*a)
        )
        cfg = ExperimentConfig.from_config(
            small_config(replications=3, sweep={"parameter": "sigma1", "values": [1.5, 3.0]})
        )
        assert len(calls) == 2
        assert len(experiments.run_experiment(cfg).records) == 6
        assert len(calls) == 2

    def test_points_take_no_part_in_equality_and_are_read_only(self):
        raw = small_config(sweep={"parameter": "tau", "values": [0.1, 0.3]})
        a, b = ExperimentConfig.from_config(raw), ExperimentConfig.from_config(raw)
        assert a == b
        assert "points" not in repr(a)
        assert [(label, model) for label, model, _, _ in a.points] == [
            (0.1, Gaussian(0.1)), (0.3, Gaussian(0.3)),
        ]
        for _, _, signal, signal_values in a.points:
            np.testing.assert_array_equal(signal_values, np.linalg.svd(signal, compute_uv=False))
            for shared in (signal, signal_values):
                assert not shared.flags.writeable
                with pytest.raises(ValueError):
                    shared[0] = 0.0

    def test_explicit_signal_configs_compare_by_value(self):
        entries = [[1.0, 2.0], [3.0, 4.5]]
        raw = small_config(n=2, m=2, signal={"type": "explicit", "entries": entries})
        a, b = ExperimentConfig.from_config(raw), ExperimentConfig.from_config(raw)
        assert a == b
        other = ExperimentConfig.from_config(
            dict(raw, signal={"type": "explicit", "entries": [[1.0, 2.0], [3.0, 4.0]]})
        )
        assert a != other
        assert a.signal != other.signal

    def test_oracle_shrinker_reads_the_points_singular_values(self, monkeypatch):
        cfg = ExperimentConfig.from_config(small_config(estimators=["oracle-shrinker"], replications=2))
        expected = experiments.run_experiment(cfg).records
        svd = np.linalg.svd

        def factor_observations_only(a, *args, compute_uv=True, **kwargs):
            assert compute_uv, "a replication task took the signal's singular values again"
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", factor_observations_only)
        assert experiments.run_experiment(cfg).records == expected

    def test_a_non_finite_metric_fails_its_task(self):
        # The noise energy is in range, but the error relative to a faint
        # signal overflows.
        cfg = ExperimentConfig.from_config(
            small_config(
                model={"family": "gaussian", "tau": 1e148},
                signal={"type": "spike", "sigmas": [1e-10]},
                estimators=["pca:active=all"],
            )
        )
        with pytest.raises(NumericalError, match="pca:active=all: the nmse value is not finite"):
            experiments.run_experiment(cfg)

    @pytest.mark.parametrize("tau", [1e80, 1e153])
    def test_soft_fits_at_a_large_noise_level_raise_no_warning(self, tau):
        # In units of lambda, the soft search's parabolic step overflows at
        # these noise levels; the suite makes a RuntimeWarning an error.
        cfg = ExperimentConfig.from_config(
            small_config(
                n=10, m=10, model={"family": "gaussian", "tau": tau}, signal={"type": "spike", "sigmas": [3.0]},
                estimators=["soft", "weighted", "pca"], replications=4,
            )
        )
        result = experiments.run_experiment(cfg)
        assert not result.failures
        assert len(result.records) == 3 * 4

    @pytest.mark.parametrize("name", ["shrinker", "oracle-shrinker"])
    def test_tall_shrinkers_fit_as_their_wide_transpose(self, name):
        model = Gaussian(1.0 / np.sqrt(60))
        x = experiments.generate_signal(SignalSpec("spike", sigmas=(3.0, 1.5)), 30, 60)
        y = model.sample(x, np.random.default_rng(21))
        method = experiments.resolve_method(FitMethod(name), model)
        fits = []
        for obs, signal in ((y, x), (y.T, x.T)):
            fact = linalg.svd(obs)
            fn, _ = experiments.fit_estimator(
                method, obs, fact, model, np.random.default_rng(0), signal=signal,
                signal_values=np.linalg.svd(signal, compute_uv=False),
            )
            fits.append(fn.values(fact.singular_values))
        assert np.count_nonzero(fits[0]) == 2
        np.testing.assert_allclose(fits[1], fits[0], rtol=1e-12, atol=1e-12)
        tall = ExperimentConfig.from_config(small_config(n=60, m=30, estimators=[name]))
        assert not experiments.run_experiment(tall).failures

    def test_oracle_shrinker_needs_the_signals_singular_values(self):
        y = np.ones((4, 5))
        with pytest.raises(ParameterError, match="singular values"):
            experiments.fit_estimator(
                FitMethod("oracle-shrinker"), y, linalg.svd(y), Gaussian(1.0),
                np.random.default_rng(0), signal=y,
            )

    def test_shared_signals_keep_fig2_records_identical_across_threads(self, tmp_path):
        raw = json.loads((Path(__file__).parents[1] / "configs" / "fig2.json").read_text())
        cfg = ExperimentConfig.from_config(dict(raw, replications=2))
        for threads in (1, 2):
            experiments.run_experiment(cfg, threads=threads).write_csv(tmp_path / f"t{threads}.csv")
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_tags_are_resolved_once_at_load(self, monkeypatch):
        cfg = ExperimentConfig.from_config(
            small_config(estimators=["pca:rank=1,active=all", "soft"], replications=2)
        )
        assert cfg.methods == (
            FitMethod("pca", None, "all", 1),
            FitMethod("soft", "sure", "bulk"),
        )
        calls = []
        parse = experiments.parse_estimator_tag
        monkeypatch.setattr(
            experiments, "parse_estimator_tag", lambda *a: calls.append(a) or parse(*a)
        )
        assert len(experiments.run_experiment(cfg).records) == 4
        assert not calls

    @pytest.mark.parametrize(
        "sweep, point, rep, records",
        [
            ({"parameter": "sigma1", "values": [1.5, 3.0]}, 3.0, 2, 9),
            ({"parameter": "rank_cap", "values": [1, 2]}, None, 7, 9 * 2),
        ],
    )
    def test_failure_records_name_their_data_point(self, monkeypatch, sweep, point, rep, records):
        # With one thread the tasks run in order, one fit each: the eighth
        # fit is replication 2 at sigma1 = 3.0 (five per point), or
        # replication 7 of the rank_cap sweep's single data point.
        fits = []
        fit = experiments.fit_estimator

        def fail_eighth(*args, **kwargs):
            fits.append(1)
            if len(fits) == 8:
                raise DomainError("the fit failed")
            return fit(*args, **kwargs)

        monkeypatch.setattr(experiments, "fit_estimator", fail_eighth)
        replications = 5 if point is not None else 10
        cfg = ExperimentConfig.from_config(small_config(replications=replications, sweep=sweep))
        result = experiments.run_experiment(cfg)
        assert result.failures == [{"sweep_param": point, "replication": rep, "error": "the fit failed"}]
        assert len(result.records) == records
        assert not [r for r in result.records if r["replication"] == rep and point in (None, r["sweep_param"])]

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


# -- every JSON value at every config field -------------------------------------

GRID_BASE = small_config(
    signal={"type": "spike", "sigmas": [2.5, 1.0], "recipe": "quadratic_profile"},
    estimators=["pca:rank=1,active=all", "soft"],
    metrics=["nmse", "se"],
    clamp_floor=1e-6,
    sweep={"parameter": "sigma1", "values": [3.0, 4.0]},
)
# ``...`` deletes the field.
GRID_VALUES = (
    None, True, False, 0, -1, 2, 3.0, 10.5, 600, 10**30, float("inf"), float("nan"), "", "3",
    "nmse", "NMSE", "cosine", [], [1.0], ["x"], {}, {"a": 1}, ...,
)
# Keys the base does not hold: unknown ones, and ones its model or signal type ignores.
GRID_ADDED = (
    (("extra",), 1), (("model", "sigma"), 1), (("model", "L"), 3.0), (("signal", "gamma"), 2.0),
    (("signal", "rank"), 1), (("signal", "entries"), [[1.0]]), (("sweep", "extra"), 1),
)


def json_paths(value, path=()):
    """The path of every field and list entry below ``value``."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutated(config, path, value):
    config = copy.deepcopy(config)
    node = functools.reduce(operator.getitem, path[:-1], config)
    if value is ...:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return config


def test_every_config_mutation_loads_or_raises_parameter_error():
    mutations = [(p, v) for p in json_paths(GRID_BASE) for v in GRID_VALUES] + list(GRID_ADDED)
    rejected = set()
    for path, value in mutations:
        try:
            ExperimentConfig.from_config(mutated(GRID_BASE, path, value))
        except ParameterError:
            rejected.add((path, repr(value)))
        except Exception as exc:
            pytest.fail(f"{path} = {value!r} raised {exc!r}")
    # One mutation of each kind of fault must be rejected.
    must_reject = [
        (("n",), 600), (("m",), 10.5), (("replications",), "3"), (("root_seed",), True),
        (("root_seed",), -1), (("n",), ...),
        (("model",), []), (("model", "family"), ["x"]), (("model", "tau"), "3"), (("model", "tau"), ...),
        (("signal",), None), (("signal", "type"), "nmse"), (("signal", "sigmas"), {}),
        (("signal", "sigmas", 0), "3"), (("signal", "sigmas", 1), True), (("signal", "recipe"), ["x"]),
        (("estimators",), "nmse"), (("estimators",), []), (("estimators", 0), 2),
        (("metrics",), []), (("metrics", 0), "NMSE"), (("metrics", 1), ["x"]),
        (("clamp_floor",), "3"), (("clamp_floor",), 0),
        (("sweep",), None), (("sweep", "parameter"), "cosine"), (("sweep", "parameter"), ...),
        (("sweep", "values"), []), (("sweep", "values"), ...), (("sweep", "values", 0), "3"),
        *GRID_ADDED,
    ]
    assert [m for m in must_reject if (m[0], repr(m[1])) not in rejected] == []
