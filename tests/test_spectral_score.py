"""Realized NMSE and squared error of unclamped spectral estimates scored
from the spectrum (``metrics.SpectralScore``), the runner that uses it, and
the one-compose-per-evaluation risk objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import experiments, linalg, metrics, risk, shrinkage
from svshrink.errors import DomainError, ParameterError
from svshrink.experiments import ExperimentConfig
from svshrink.models import Gamma, Poisson

from helpers import derivative_probe, rank_one_positive, spiked_signal

EPS = np.finfo(float).eps

shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(2, 8), st.integers(9, 14)),  # n < m
    st.tuples(st.integers(9, 14), st.integers(2, 8)),  # n > m
)
seeds = st.integers(0, 2**32 - 1)
value_kinds = st.sampled_from(["zeros", "random", "rank_cap", "identity"])


def observation(shape, seed, deficient):
    """A Gaussian observation; ``deficient`` makes it exactly rank-deficient
    (rank 1 when min(n, m) > 1), so its trailing singular values are 0."""
    rng = np.random.default_rng(seed)
    if deficient and min(shape) > 1:
        return np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
    return rng.standard_normal(shape)


def spectral_values(kind, fact, rng):
    k = fact.rank_bound
    if kind == "zeros":
        return np.zeros(k)
    if kind == "identity":
        return fact.singular_values.copy()
    c = rng.uniform(-1.0, 2.0, k) * max(fact.singular_values[0], 1.0)
    if kind == "rank_cap":
        c[rng.integers(0, k + 1):] = 0.0
    return c


@settings(max_examples=120, deadline=None)
@given(shapes, seeds, value_kinds, st.booleans(), st.floats(1e-3, 1e3), st.integers(1, 6))
def test_spectral_score_matches_entrywise_metric(shape, seed, kind, deficient, scale, rows):
    # The rank caps of one fit are scored as one (C, k) stack: each row's
    # score equals, bit for bit, the score of that row on its own, which is
    # np.sum over that one spectrum.
    y = observation(shape, seed, deficient)
    fact = linalg.svd(y)
    rng = np.random.default_rng(seed + 1)
    x = scale * rng.standard_normal(shape)
    stack = np.stack([spectral_values(kind, fact, rng) for _ in range(rows)])
    score = metrics.SpectralScore(x, fact)
    energy = float(np.sum(x**2))
    for name in metrics.SPECTRAL_METRICS:
        alone = [score.metric(name, c) for c in stack]
        assert all(type(v) is float for v in alone)
        stacked = score.metric(name, stack)
        assert stacked.shape == (rows,) and stacked.tobytes() == np.array(alone).tobytes()
        for c, fast in zip(stack, alone):
            se_alone = float(np.sum((c - score.projections) ** 2)) + score.residual
            assert fast == (se_alone / score.energy if name == "nmse" else se_alone)
            dense = metrics.metric(name, linalg.compose(fact, c), x)
            se = dense * energy if name == "nmse" else dense
            tol = 1e-12 * max(se, EPS * energy)
            if name == "nmse":
                tol /= energy
            assert fast >= 0.0
            assert abs(fast - dense) <= tol, (name, fast, dense)


@settings(max_examples=80, deadline=None)
@given(shapes, seeds, st.booleans())
def test_signal_in_the_observed_span_scores_near_zero(shape, seed, deficient):
    # X = sum_k a_k u_k v_k^T on the observed pairs; the estimate with c = a
    # is X itself, so both terms of the split are rounding-level and >= 0.
    y = observation(shape, seed, deficient)
    fact = linalg.svd(y)
    a = np.random.default_rng(seed + 1).uniform(0.5, 2.0, fact.rank_bound)
    x = linalg.compose(fact, a)
    score = metrics.SpectralScore(x, fact)
    assert score.residual >= 0.0
    value = score.metric("nmse", a)
    assert 0.0 <= value < 1e-24 * (shape[0] + shape[1])


def test_projections_are_the_diagonal_of_ut_x_v():
    rng = np.random.default_rng(3)
    y, x = rng.standard_normal((7, 11)), rng.standard_normal((7, 11))
    fact = linalg.svd(y)
    expected = np.diag(fact.left_vectors.T @ x @ fact.right_vectors)
    np.testing.assert_allclose(metrics.signal_projections(x, fact), expected, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(shrinkage.oracle_weights(x, fact), metrics.signal_projections(x, fact))


def test_spectral_score_errors_match_the_entrywise_metric():
    fact = linalg.svd(np.random.default_rng(0).standard_normal((4, 5)))
    zero = metrics.SpectralScore(np.zeros((4, 5)), fact)
    with pytest.raises(DomainError, match="all-zero signal"):
        zero.metric("nmse", np.zeros(4))
    assert zero.metric("se", np.zeros(4)) == 0.0
    with pytest.raises(DomainError):
        metrics.SpectralScore(np.zeros((5, 4)), fact).metric("se", np.zeros(4))
    with pytest.raises(DomainError):
        zero.metric("se", np.zeros(3))
    with pytest.raises(DomainError):
        zero.metric("se", np.zeros((2, 3)))
    with pytest.raises(DomainError):
        zero.metric("se", np.zeros((2, 2, 4)))
    with pytest.raises(DomainError, match="all-zero signal"):
        zero.metric("nmse", np.zeros((2, 4)))
    with pytest.raises(ParameterError):
        zero.metric("kls", np.zeros(4))


# -- the runner ----------------------------------------------------------------


def rank_cap_config(**overrides):
    base = {
        "n": 20,
        "m": 25,
        "model": {"family": "gaussian", "tau": 0.2},
        "signal": {"type": "spike", "sigmas": [4.0, 2.5, 1.5], "recipe": "cosine"},
        "estimators": [
            "weighted:objective=sure,active=bulk",
            "weighted:objective=sure,active=all",
            "pca",
            "soft:objective=sure",
            "oracle-weights",
            "shrinker",
        ],
        "metrics": ["nmse", "se"],
        "replications": 2,
        "root_seed": 11,
        "sweep": {"parameter": "rank_cap", "values": [1, 2, 3, 5, 20]},
    }
    base.update(overrides)
    return base


def dense_records(config: ExperimentConfig, rep: int) -> list[dict]:
    """The records of one rank-cap replication, every estimate composed and
    scored entrywise: the runner's scoring loop before spectral scoring."""
    model, signal_spec = config.model, config.signal
    rng = np.random.default_rng(np.random.SeedSequence([config.root_seed, 0, rep]))
    x = experiments.generate_signal(signal_spec, config.n, config.m, model)
    y = model.sample(x, rng)
    fact = linalg.svd(y)
    records = []
    for est_idx, tag in enumerate(config.estimators):
        method = experiments.parse_estimator_tag(tag, model)
        est_rng = np.random.default_rng(
            np.random.SeedSequence([config.root_seed, 0, rep, est_idx])
        )
        fn, _ = experiments.fit_estimator(
            method, experiments.Observation(y, fact, model, config.clamp_floor, x), est_rng
        )
        values = fn.values(fact.singular_values)
        for cap in config.sweep_values:
            capped = values.copy()
            capped[int(cap):] = 0.0
            xhat = linalg.clamp(linalg.compose(fact, capped), fn.clamp_floor)
            for metric_name in config.metrics:
                records.append(
                    {
                        "sweep_param": cap,
                        "estimator": tag,
                        "replication": rep,
                        "metric_name": metric_name,
                        "value": metrics.metric(metric_name, xhat, x, model),
                    }
                )
    return records


def record_key(rec):
    return rec["sweep_param"], rec["estimator"], rec["replication"], rec["metric_name"]


def test_rank_cap_records_match_the_dense_scoring_loop():
    config = ExperimentConfig.from_config(rank_cap_config())
    result = experiments.run_experiment(config)
    expected = {
        record_key(r): r["value"]
        for rep in range(config.replications)
        for r in dense_records(config, rep)
    }
    assert not result.failures
    assert len(result.records) == len(expected)
    for rec in result.records:
        assert rec["value"] == pytest.approx(expected[record_key(rec)], rel=1e-12, abs=0.0)


def per_cell_summaries(records) -> list[dict]:
    """The summary cells of ordered records, one np.quantile call per cell."""
    cells = {}
    for r in records:
        cells.setdefault((r["sweep_param"], r["estimator"], r["metric_name"]), []).append(r["value"])
    summaries = []
    for (label, tag, metric_name), cell in cells.items():
        q10, med, q90 = np.quantile(cell, [0.1, 0.5, 0.9], method="linear")
        summaries.append(
            {
                "sweep_param": label, "estimator": tag, "metric_name": metric_name,
                "count": len(cell), "q10": float(q10), "median": float(med), "q90": float(q90),
            }
        )
    return summaries


# (sweep, replications, the failed task's replication at the first data
# point, the cell counts of the run).  The failed task leaves the first
# point's cells one record short, every cap of the rank_cap sweep's single
# data point, the one point of a run with no sweep, or, at one replication,
# no cell at all for the first point.
# (sweep, replications, the failed replication of point 0 or None, the
# cells' counts, the quantile calls: one per set of finished replications)
UNEQUAL_CELL_RUNS = (
    ({"parameter": "sigma1", "values": [4.0, 6.0, 5.0]}, 12, 3, [11, 12], 2),
    ({"parameter": "rank_cap", "values": [3, 1, 20, 2]}, 12, 3, [11], 1),
    (None, 12, 3, [11], 1),
    ({"parameter": "sigma1", "values": [4.0 + k for k in range(10)]}, 1, 0, [1], 1),
    ({"parameter": "sigma1", "values": [4.0, 6.0, 5.0]}, 12, None, [12], 1),
)


def test_summaries_of_unequal_cells_match_per_cell_quantiles(monkeypatch, tmp_path):
    replication_records = experiments._replication_records

    def fail_one(config, point_idx, rep):
        if (point_idx, rep) == (0, failed_rep):  # the run's failed task, read at call time
            raise DomainError("the task failed")
        return replication_records(config, point_idx, rep)

    monkeypatch.setattr(experiments, "_replication_records", fail_one)
    quantile, calls = np.quantile, []
    monkeypatch.setattr(np, "quantile", lambda *args, **kwargs: calls.append(1) or quantile(*args, **kwargs))
    for sweep, replications, failed_rep, counts, quantile_calls in UNEQUAL_CELL_RUNS:
        raw = rank_cap_config(signal={"type": "spike", "sigmas": [4.0, 2.5, 1.5]}, replications=replications)
        raw.pop("sweep")
        config = ExperimentConfig.from_config(dict(raw, sweep=sweep) if sweep else raw)
        calls.clear()
        result = experiments.run_experiment(config)
        assert len(calls) == quantile_calls
        assert len(result.failures) == (failed_rep is not None)
        assert sorted({c["count"] for c in result.summaries}) == counts
        # Records come out in (sweep value, estimator, replication, metric)
        # order; the failed task drops every row of its data point.
        labels = sweep["values"] if sweep else [None]
        failed = labels if sweep is None or sweep["parameter"] == "rank_cap" else labels[:1]
        assert [record_key(r) for r in result.records] == [
            (label, tag, rep, metric)
            for label in labels
            for tag in config.estimators
            for rep in range(replications)
            if not (label in failed and rep == failed_rep)
            for metric in config.metrics
        ]
        expected = experiments.ExperimentResult(
            result.records, per_cell_summaries(result.records), result.failures
        )
        result.write_summary(tmp_path / "stacked.json")
        expected.write_summary(tmp_path / "per_cell.json")
        assert (tmp_path / "stacked.json").read_bytes() == (tmp_path / "per_cell.json").read_bytes()


def count_composes(monkeypatch) -> list:
    calls = []
    compose = linalg.compose
    monkeypatch.setattr(
        linalg, "compose", lambda fact, values: calls.append(1) or compose(fact, values)
    )
    return calls


def test_gaussian_rank_cap_replication_composes_at_most_once(monkeypatch):
    config = ExperimentConfig.from_config(rank_cap_config(replications=1))
    calls = count_composes(monkeypatch)
    result = experiments.run_experiment(config)
    assert len(result.records) == 6 * 5 * 2
    assert len(calls) <= 1


def test_clamped_estimates_compose_once_per_estimator_and_cap(monkeypatch):
    # Gamma estimates are clamped, so nmse is scored entrywise, and one
    # compose per (estimator, cap) serves both metrics.  Neither fit composes.
    config = ExperimentConfig.from_config(
        rank_cap_config(
            model={"family": "gamma", "L": 8.0},
            signal={"type": "spike", "sigmas": [30.0], "recipe": "quadratic_profile"},
            estimators=["pca:active=all", "oracle-weights"],
            metrics=["nmse", "kls"],
            sweep={"parameter": "rank_cap", "values": [1, 2, 3]},
            replications=1,
        )
    )
    calls = count_composes(monkeypatch)
    result = experiments.run_experiment(config)
    assert not result.failures
    assert len(result.records) == 2 * 3 * 2
    assert len(calls) == 2 * 3


# -- one unclamped compose per risk evaluation ---------------------------------


def poisson_input(n=100, m=120, seed=5):
    rng = np.random.default_rng(seed)
    x = rank_one_positive(n, m, 1000.0) + spiked_signal(n, m, [300.0], rng) * 0.1
    return Poisson().sample(np.maximum(x, 0.05), rng)


def rank_two_map(k):
    weights = np.zeros(k)
    weights[:2] = 0.95, 0.6
    return linalg.weights_function(weights, 1e-6)


def test_approximate_pukla_report_composes_once(monkeypatch):
    y = poisson_input()
    assert y.size > risk.EXACT_DOWNDATE_CAP  # the report takes the MC path
    fact = linalg.svd(y)
    evaluate = risk.make_risk_objective(
        y, fact, Poisson(), "pukla", rng=np.random.default_rng(0), samples=64, exact=True
    )
    fn = rank_two_map(fact.rank_bound)
    calls = count_composes(monkeypatch)
    report = evaluate(fn)
    assert report.samples == 64
    assert len(calls) == 1


def blocks_input(model):
    """Two blocks on a near-zero background: rank-two estimates of it dip
    below the clamp floor."""
    x = np.full((12, 9), 0.01)
    x[:6, :5], x[6:, 5:] = 10.0, 4.0
    return model.sample(x, np.random.default_rng(4))


@pytest.mark.parametrize("objective", ["gsure", "sukls", "pure", "pukla"])
def test_every_clamped_objective_composes_once_per_evaluation(monkeypatch, objective):
    # With the floor active SUKLS takes its Monte-Carlo path as well.
    model = Poisson() if objective in ("pure", "pukla") else Gamma(4.0)
    y = blocks_input(model)
    fact = linalg.svd(y)
    evaluate = risk.make_risk_objective(
        y, fact, model, objective, rng=np.random.default_rng(1), samples=5
    )
    # Indices 2 and 3 alone change sign across the matrix.
    weights = np.zeros(fact.rank_bound)
    weights[1:3] = 1.0
    fn = linalg.weights_function(weights, 1e-6)
    assert np.any(linalg.compose(fact, fn.values(fact.singular_values)) < fn.clamp_floor)
    calls = count_composes(monkeypatch)
    evaluate(fn)
    assert len(calls) == 1


def per_probe_pukla(y, fn, fact, directions, log_floor=1e-6):
    """The approximate PUKLA value with each probe composing its own floor
    mask, as before the mask was shared."""
    fhat = linalg.reconstruct(fact, fn)
    nonzero = np.argwhere(y > 0)
    counts = y[nonzero[:, 0], nonzero[:, 1]]
    terms = []
    for delta in directions:
        dd = derivative_probe(fn, fact, delta)
        approx = np.maximum(fhat - delta * dd, max(log_floor, fn.clamp_floor))
        terms.append(float(np.sum(counts * np.log(approx[nonzero[:, 0], nonzero[:, 1]]))))
    return float(np.sum(fhat)) - float(np.mean(terms))


def test_shared_floor_mask_gives_bit_identical_estimates():
    y = blocks_input(Poisson())
    fact = linalg.svd(y)
    fn = rank_two_map(fact.rank_bound)
    assert np.any(linalg.compose(fact, fn.values(fact.singular_values)) < fn.clamp_floor)
    directions = risk.probe_directions(y.shape, 6, np.random.default_rng(2))
    got = risk.pukla_poisson(y, fn, mode="approx", samples=6, rng=np.random.default_rng(2), fact=fact)
    assert got.value == per_probe_pukla(y, fn, fact, directions)
    mc = risk.mc_divergence(fn, y, 6, np.random.default_rng(2), fact=fact)
    expected = np.mean([np.sum(d * derivative_probe(fn, fact, d)) for d in directions])
    assert mc.value == float(expected)
