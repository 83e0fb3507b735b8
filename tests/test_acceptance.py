"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from svshrink import activeset, experiments, linalg, metrics, risk, rmt, shrinkage
from svshrink.experiments import ExperimentConfig
from svshrink.linalg import SpectralFunction
from svshrink.models import Gamma, Gaussian, Poisson

from helpers import fd_divergence, grid_argmin, rank_one_positive, spiked_signal


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert ok, detail


def weighted_fn(weights, clamp=None) -> SpectralFunction:
    weights = np.asarray(weights, dtype=float)

    def values(s):
        out = np.zeros_like(s)
        out[: len(weights)] = weights * s[: len(weights)]
        return out

    def derivs(s):
        out = np.zeros_like(s)
        out[: len(weights)] = weights
        return out

    return SpectralFunction(values, derivs, clamp)


def paired_gap(diffs):
    diffs = np.asarray(diffs)
    stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
    return abs(diffs.mean()), stderr


def test_criterion_01_identity_divergence_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 81))
        fact = linalg.svd(rng.standard_normal((n, m)))
        s = fact.singular_values
        div = risk.divergence_closed_form(fact, s.copy(), np.ones_like(s))
        worst = max(worst, abs(div - n * m) / (n * m))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"identity divergence within {worst:.2e} relative of n*m over 100 matrices "
        f"({elapsed:.2f}s)",
    )


def test_criterion_02_divergence_vs_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        y = rng.standard_normal((8, 6))
        fact = linalg.svd(y)
        s = fact.singular_values
        lam = s[2]
        cases = [
            (0.5 * s, 0.5 * np.ones_like(s), lambda t: 0.5 * t),
            (s**2, 2 * s, lambda t: t**2),
            (
                linalg.soft_threshold_values(s, lam),
                linalg.soft_threshold_derivs(s, lam),
                lambda t, lam=lam: np.maximum(t - lam, 0.0),
            ),
        ]
        for values, derivs, apply_fn in cases:
            closed = risk.divergence_closed_form(fact, values, derivs)
            oracle = fd_divergence(apply_fn, y)
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - started
    report(
        2,
        worst <= 1e-5 and elapsed < 30.0,
        f"closed-form divergence within {worst:.2e} of entrywise finite differences "
        f"for three shrinker families ({elapsed:.2f}s)",
    )


def test_criterion_03_risk_estimates_are_unbiased():
    started = time.perf_counter()
    reps = 2000
    details = []
    ok = True

    # Gaussian mean-squared error estimate, rank-3 spike at 60x60.
    n = m = 60
    tau = 1.0 / np.sqrt(m)
    x = spiked_signal(n, m, [4.0, 3.0, 2.0], np.random.default_rng(103))
    model = Gaussian(tau)
    fn = weighted_fn([0.9, 0.8, 0.7])
    diffs = []
    for i in range(reps):
        y = model.sample(x, np.random.default_rng(np.random.SeedSequence([103, i])))
        fact = linalg.svd(y)
        s = fact.singular_values
        est = linalg.compose(fact, fn.values(s))
        div = risk.divergence_closed_form(fact, fn.values(s), fn.derivs(s))
        diffs.append(risk.sure_gaussian(y, est, tau, div).value - np.sum((est - x) ** 2))
    gap, stderr = paired_gap(diffs)
    ok &= gap <= 3 * stderr
    details.append(f"SURE gap {gap:.3g} <= 3x{stderr:.3g}")

    # Gamma natural-parameter and synthesis-KL estimates at 40x40, L=3.
    L = 3.0
    xg = rank_one_positive(40, 40, 40.0)
    gamma = Gamma(L)
    fng = weighted_fn([0.9], clamp=1e-6)
    kls_constant = -L * float(np.sum(np.log(xg)))
    diffs_gsure, diffs_sukls = [], []
    for i in range(reps):
        r = np.random.default_rng(np.random.SeedSequence([104, i]))
        y = gamma.sample(xg, r)
        fact = linalg.svd(y)
        s = fact.singular_values
        est = linalg.reconstruct(fact, fng)
        theta_div = risk.mc_theta_divergence_gamma(fng, y, L, 4, r)
        diffs_gsure.append(
            risk.gsure_gamma(y, est, L, theta_div).value - metrics.mse_eta_gamma(est, xg, L)
        )
        div = risk.divergence_closed_form(fact, fng.values(s), fng.derivs(s))
        diffs_sukls.append(
            risk.sukls_gamma(y, est, L, div).value
            - (metrics.kls_gamma(est, xg, L) + kls_constant)
        )
    gap, stderr = paired_gap(diffs_gsure)
    ok &= gap <= 3 * stderr
    details.append(f"GSURE gap {gap:.3g} <= 3x{stderr:.3g}")
    gap, stderr = paired_gap(diffs_sukls)
    ok &= gap <= 3 * stderr
    details.append(f"SUKLS gap {gap:.3g} <= 3x{stderr:.3g}")

    # Poisson exact estimates at 15x10.
    xp = rank_one_positive(15, 10, 55.0)
    poisson = Poisson()
    fnp = weighted_fn([0.85], clamp=1e-6)
    norm_sq = float(np.sum(xp**2))
    kla_constant = float(np.sum(xp - xp * np.log(xp)))
    diffs_pure, diffs_pukla = [], []
    for i in range(reps):
        y = poisson.sample(xp, np.random.default_rng(np.random.SeedSequence([105, i])))
        est = fnp(y)
        diffs_pure.append(
            risk.pure_poisson(y, fnp, mode="exact").value
            - (float(np.sum((est - xp) ** 2)) - norm_sq)
        )
        diffs_pukla.append(
            risk.pukla_poisson(y, fnp, mode="exact").value
            - (metrics.kla_poisson(est, xp) + kla_constant)
        )
    gap, stderr = paired_gap(diffs_pure)
    ok &= gap <= 3 * stderr
    details.append(f"PURE gap {gap:.3g} <= 3x{stderr:.3g}")
    gap, stderr = paired_gap(diffs_pukla)
    ok &= gap <= 3 * stderr
    details.append(f"PUKLA gap {gap:.3g} <= 3x{stderr:.3g}")

    elapsed = time.perf_counter() - started
    ok &= elapsed < 600.0
    report(3, bool(ok), f"{'; '.join(details)} over M={reps} replications ({elapsed:.1f}s)")


def test_criterion_04_spiked_model_limits():
    started = time.perf_counter()
    n = m = 500
    sigma = 2.0
    tops, sums = [], []
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([106, i]))
        x = spiked_signal(n, m, [sigma], rng)
        y = x + rng.standard_normal((n, m)) / np.sqrt(m)
        s = linalg.svd(y).singular_values
        tops.append(s[0])
        sums.append(float(np.sum(s[0] / (s[0] ** 2 - s[1:] ** 2)) / n))
    top_med, sum_med = np.median(tops), np.median(sums)
    rho_target = rmt.rho(sigma, 1.0)
    sum_target = (1 + 1 / sigma**2) / rho_target
    elapsed = time.perf_counter() - started
    ok = (
        abs(top_med - rho_target) <= 0.05 * rho_target
        and abs(sum_med - sum_target) <= 0.10 * sum_target
        and elapsed < 120.0
    )
    report(
        4,
        ok,
        f"median leading singular value {top_med:.4f} vs limit {rho_target}, "
        f"median pair-sum {sum_med:.4f} vs limit {sum_target} ({elapsed:.1f}s)",
    )


def test_criterion_05_shrinker_formula_equivalence():
    started = time.perf_counter()
    worst_forms, worst_weight = 0.0, 0.0
    for c in (0.25, 0.5, 1.0):
        sigmas = np.arange(c**0.25 + 0.01, 10.0, 0.01)
        gd = rmt.shrinker_gd(rmt.rho(sigmas, c), c)
        direct = rmt.shrinker_sigma(sigmas, c)
        product = rmt.asymptotic_optimal_weight(sigmas, c) * rmt.rho(sigmas, c)
        worst_forms = max(worst_forms, float(np.max(np.abs(gd - direct))))
        worst_weight = max(worst_weight, float(np.max(np.abs(product - direct))))
    elapsed = time.perf_counter() - started
    ok = worst_forms < 1e-10 and worst_weight < 1e-10 and elapsed < 1.0
    report(
        5,
        ok,
        f"shrinker forms agree to {worst_forms:.2e}, weight*location to "
        f"{worst_weight:.2e} over the sigma grids ({elapsed:.2f}s)",
    )


def test_criterion_06_gaussian_weight_optimality_and_limit():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(8, 20))
        m = int(rng.integers(8, 20))
        tau = float(rng.uniform(0.1, 0.5))
        y = spiked_signal(n, m, [3.0, 2.0], rng) + tau * rng.standard_normal((n, m))
        fact = linalg.svd(y)
        closed = shrinkage.weights_gaussian(fact, tau)
        s = fact.singular_values
        k_all = fact.rank_bound
        for k in range(1, k_all + 1):

            def sure_at(w, k=k):
                weights = closed.copy()
                weights[k - 1] = w
                values, derivs = weights * s, weights
                est = linalg.compose(fact, values)
                div = risk.divergence_closed_form(fact, values, derivs)
                return risk.sure_gaussian(y, est, tau, div).value

            best = grid_argmin(sure_at, 0.0, 1.0, 1e-4)
            worst = max(worst, abs(closed[k - 1] - best))
    grid_ok = worst <= 1e-4 + 1e-12

    fitted = []
    for i in range(9):
        rng_i = np.random.default_rng(np.random.SeedSequence([108, i]))
        n = m = 500
        x = spiked_signal(n, m, [2.0], rng_i)
        y = x + rng_i.standard_normal((n, m)) / np.sqrt(m)
        fact = linalg.svd(y)
        fitted.append(shrinkage.weights_gaussian(fact, 1 / np.sqrt(m), [1])[0])
    w_limit = rmt.asymptotic_optimal_weight(2.0, 1.0)
    gap = abs(float(np.median(fitted)) - w_limit)
    elapsed = time.perf_counter() - started
    ok = grid_ok and gap <= 0.03 and elapsed < 180.0
    report(
        6,
        ok,
        f"closed-form weights match per-coordinate grid argmin to {worst:.2e}; "
        f"fitted leading weight within {gap:.4f} of the limit {w_limit} ({elapsed:.1f}s)",
    )


def test_criterion_07_active_set_equivalences():
    import itertools

    started = time.perf_counter()
    rng = np.random.default_rng(109)
    agree = True
    for _ in range(50):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(n, 15))
        if min(n, m) > 12:
            continue
        tau = float(rng.uniform(0.15, 0.6))
        y = spiked_signal(n, m, [4.0, 2.5], rng) + tau * rng.standard_normal((n, m))
        model = Gaussian(tau)
        fact = linalg.svd(y)
        k = fact.rank_bound
        best, best_score = None, np.inf
        for r in range(k + 1):
            for subset in itertools.combinations(range(1, k + 1), r):
                score = activeset.aic(y, model, subset, fact=fact)
                if score < best_score:
                    best, best_score = subset, score
        closed = activeset.active_set_gaussian(fact, tau).selected
        greedy = activeset.active_set_greedy(y, model, fact=fact).selected
        agree &= closed == best == greedy
    penalty_gap = max(
        abs(np.sqrt(2 * activeset.penalty(n_, m_) / m_) - (1 + np.sqrt(n_ / m_)))
        for n_, m_ in [(3, 7), (100, 200), (64, 64), (1, 1)]
    )
    elapsed = time.perf_counter() - started
    ok = agree and penalty_gap <= 1e-12 and elapsed < 60.0
    report(
        7,
        ok,
        f"greedy = closed form = exhaustive argmin on 50 instances; penalty identity "
        f"within {penalty_gap:.1e} ({elapsed:.1f}s)",
    )


def test_criterion_08_rank_one_closed_forms():
    started = time.perf_counter()

    L = 3.0
    x = rank_one_positive(100, 100, 3.0 * 100 / 3.06)  # entrywise mean ~ sigma1/100
    gamma = Gamma(L)
    gaps = []
    for i in range(20):
        y = gamma.sample(x, np.random.default_rng(np.random.SeedSequence([110, i])))
        fact = linalg.svd(y)
        s = fact.singular_values
        closed = shrinkage.weight1_gamma_sukls(y, fact, L)

        def sukls_of(w):
            values = np.zeros_like(s)
            values[0] = w * s[0]
            derivs = np.zeros_like(s)
            derivs[0] = w
            est = linalg.compose(fact, values)
            div = risk.divergence_closed_form(fact, values, derivs)
            return risk.sukls_gamma(y, est, L, div).value

        gaps.append(abs(closed - shrinkage.minimize_bounded(sukls_of, 0.0, 1.0, xatol=1e-8)))
    gamma_gap = float(np.median(gaps))

    xp = rank_one_positive(15, 10, 55.0)
    pois_gaps = []
    for i in range(10):
        y = Poisson().sample(xp, np.random.default_rng(np.random.SeedSequence([111, i])))
        fact = linalg.svd(y)
        closed = shrinkage.weight1_poisson_pukla(y, fact)

        def pukla_of(w):
            fn = weighted_fn([w], clamp=1e-6)
            return risk.pukla_poisson(y, fn, mode="exact").value

        numeric = shrinkage.minimize_bounded(pukla_of, 0.0, 1.0, xatol=1e-9, maxiter=500)
        pois_gaps.append(abs(closed - numeric))
    poisson_gap = float(np.max(pois_gaps))

    elapsed = time.perf_counter() - started
    ok = gamma_gap <= 1e-3 and poisson_gap <= 1e-6 and elapsed < 120.0
    report(
        8,
        ok,
        f"Gamma synthesis-KL weight within {gamma_gap:.2e} (median) of the numeric "
        f"minimizer; Poisson analysis-KL weight within {poisson_gap:.2e} of the exact "
        f"minimizer ({elapsed:.1f}s)",
    )


def test_criterion_09_rank_one_sweep_ordering():
    started = time.perf_counter()
    raw = json.loads(open("configs/fig2.json").read())
    config = ExperimentConfig.from_config(raw)
    result = experiments.run_experiment(config, threads=4)
    weighted = "weighted:objective=sure,active=bulk,rank=1"
    pca = "pca:rank=1,active=all"
    oracle = "oracle-shrinker"
    ok = True
    details = []
    for sigma1 in [v for v in config.sweep_values if v >= 1.5]:
        med_w = result.median(sigma1, weighted, "nmse")
        med_p = result.median(sigma1, pca, "nmse")
        med_o = result.median(sigma1, oracle, "nmse")
        ok &= med_w <= med_p
        ok &= abs(med_w - med_o) <= 0.10 * med_o
        details.append(f"s1={sigma1}: w={med_w:.3f} pca={med_p:.3f} oracle={med_o:.3f}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 300.0
    report(9, bool(ok), "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_10_rank_cap_plateau_and_active_set():
    started = time.perf_counter()
    raw = json.loads(open("configs/fig5.json").read())
    raw["estimators"] = [
        "weighted:objective=sure,active=bulk",
        "weighted:objective=sure,active=all",
    ]
    config = ExperimentConfig.from_config(raw)
    result = experiments.run_experiment(config, threads=4)
    gated = "weighted:objective=sure,active=bulk"
    ungated = "weighted:objective=sure,active=all"
    caps = list(config.sweep_values)
    meds = [result.median(v, gated, "nmse") for v in caps]
    # Non-increasing to a plateau (2% slack for replication noise).
    monotone = all(b <= a * 1.02 for a, b in zip(meds, meds[1:]))
    at_true_rank = result.median(9.0, gated, "nmse")
    at_full = result.median(float(caps[-1]), gated, "nmse")
    plateau = at_full <= 1.05 * at_true_rank
    ungated_full = result.median(float(caps[-1]), ungated, "nmse")
    contrast = ungated_full > at_full
    elapsed = time.perf_counter() - started
    ok = monotone and plateau and contrast and elapsed < 600.0
    report(
        10,
        ok,
        f"gated medians non-increasing ({meds[0]:.3f} -> {meds[-1]:.4f}), full-cap vs "
        f"true-rank ratio {at_full / at_true_rank:.3f} <= 1.05, ungated full-cap "
        f"{ungated_full:.4f} > gated {at_full:.4f} ({elapsed:.1f}s)",
    )
