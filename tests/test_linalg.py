"""SVD convention, spectral reconstruction, and the directional derivative."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import linalg
from svshrink.errors import DegenerateSpectrumError, DomainError, NumericalError
from svshrink.linalg import SpectralFunction, weights_function

from helpers import apply_spectral, derivative_probe


class TestSvd:
    def test_identity_matrix(self):
        fact = linalg.svd(np.eye(3))
        np.testing.assert_allclose(fact.singular_values, [1.0, 1.0, 1.0])

    def test_padded_diagonal(self):
        y = np.zeros((3, 5))
        y[0, 0], y[1, 1], y[2, 2] = 3.0, 2.0, 1.0
        fact = linalg.svd(y)
        np.testing.assert_allclose(fact.singular_values, [3.0, 2.0, 1.0], atol=1e-14)

    def test_reconstruction_accuracy(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((10, 7))
        fact = linalg.svd(y)
        recon = linalg.reconstruct(fact, weights_function(np.ones(7)))
        assert np.linalg.norm(recon - y) <= 1e-10 * np.linalg.norm(y)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        fact = linalg.svd(rng.standard_normal((8, 12)))
        k = fact.rank_bound
        np.testing.assert_allclose(fact.left_vectors.T @ fact.left_vectors, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(fact.right_vectors.T @ fact.right_vectors, np.eye(k), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        fact = linalg.svd(rng.standard_normal((9, 5)))
        for k in range(fact.rank_bound):
            col = fact.left_vectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((6, 6))
        a, b = linalg.svd(y), linalg.svd(y.copy())
        assert np.array_equal(a.left_vectors, b.left_vectors)
        assert np.array_equal(a.right_vectors, b.right_vectors)
        assert np.array_equal(a.singular_values, b.singular_values)

    def test_rejects_nonfinite(self):
        y = np.ones((2, 2))
        y[0, 1] = np.nan
        with pytest.raises(DomainError):
            linalg.svd(y)


def edge_matrix(kind, n, m, seed):
    """A 1 x m, m x 1, rank-deficient, all-zero or generic matrix."""
    rng = np.random.default_rng(seed)
    if kind == "row":
        return rng.standard_normal((1, m))
    if kind == "column":
        return rng.standard_normal((n, 1))
    if kind == "zero":
        return np.zeros((n, m))
    if kind == "rank_deficient":
        r = int(rng.integers(0, min(n, m)))
        return rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
    return rng.standard_normal((n, m))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["row", "column", "zero", "rank_deficient", "generic"]),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_sign_convention_property(kind, n, m, seed):
    y = edge_matrix(kind, n, m, seed)
    a, b = linalg.svd(y), linalg.svd(y.copy())
    assert np.array_equal(a.singular_values, b.singular_values)
    assert np.array_equal(a.left_vectors, b.left_vectors)
    assert np.array_equal(a.right_vectors, b.right_vectors)
    u = a.left_vectors
    anchors = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    assert np.all(anchors > 0)
    rebuilt = (u * a.singular_values) @ a.right_vectors.T
    np.testing.assert_allclose(rebuilt, y, rtol=0, atol=1e-12 * max(1.0, float(np.abs(y).max())))


def conditioned(n, m, kappa_sq, seed):
    """An ``n x m`` matrix with singular values from 1 down to
    ``1 / sqrt(kappa_sq)``, the others log-uniform between, and random
    singular vectors; and those singular values."""
    rng = np.random.default_rng(seed)
    k = min(n, m)
    low = -0.5 * np.log(kappa_sq)
    s = np.exp(np.sort(np.r_[0.0, low, rng.uniform(low, 0.0, k - 2)])[::-1])
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    v, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return (u * s) @ v.T, s


def counted_svd(y):
    """``linalg.svd(y)`` and how many ``np.linalg.eigh`` and ``np.linalg.svd``
    calls it made."""
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as lapack:
        fact = linalg.svd(y)
    return fact, eigh.call_count, lapack.call_count


def lapack_factors(y):
    """LAPACK's thin SVD of ``y`` with the package's sign convention."""
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    u, v = linalg._apply_sign_convention(u, vt.T)
    return s, u, v


class TestGramRoute:
    """A clearly rectangular input (longer side at least twice the shorter,
    shorter side at least 12) is factored through its Gram matrix; every
    other input, and every one the route refuses, by LAPACK's thin SVD."""

    @pytest.mark.parametrize(
        "shape", [(30, 30), (60, 60), (100, 100), (100, 120), (20, 39), (11, 40), (40, 11), (10, 5), (5, 10), (1, 50)]
    )
    def test_square_and_small_inputs_never_reach_eigh(self, shape):
        y = np.random.default_rng(0).standard_normal(shape)
        fact, eighs, lapacks = counted_svd(y)
        assert (eighs, lapacks) == (0, 1)
        s, u, v = lapack_factors(y)
        assert np.array_equal(fact.singular_values, s)
        assert np.array_equal(fact.left_vectors, u)
        assert np.array_equal(fact.right_vectors, v)

    @pytest.mark.parametrize("shape", [(12, 24), (24, 12), (100, 200), (200, 100)])
    def test_clearly_rectangular_inputs_take_one_eigh(self, shape):
        _, eighs, lapacks = counted_svd(np.random.default_rng(1).standard_normal(shape))
        assert (eighs, lapacks) == (1, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tall", [False, True])
    @pytest.mark.parametrize(
        "kind", ["rank_deficient", "zero", "past_the_condition_bound", "underflow", "near_overflow"]
    )
    def test_refused_inputs_get_the_lapack_factorization(self, kind, tall):
        rng = np.random.default_rng(2)
        y = {
            "rank_deficient": lambda: rng.standard_normal((24, 5)) @ rng.standard_normal((5, 60)),
            "zero": lambda: np.zeros((24, 60)),
            "past_the_condition_bound": lambda: conditioned(24, 60, 1600.0, 3)[0],
            "underflow": lambda: 2.0**-520 * conditioned(24, 60, 10.0, 4)[0],
            "near_overflow": lambda: 0.9 * linalg.LARGEST_SQUARE_ROOT * conditioned(24, 60, 10.0, 5)[0],
        }[kind]()
        y = y.T if tall else y
        fact, eighs, lapacks = counted_svd(y)
        assert (eighs, lapacks) == (1, 1)
        s, u, v = lapack_factors(y)
        assert np.array_equal(fact.singular_values, s)
        assert np.array_equal(fact.left_vectors, u)
        assert np.array_equal(fact.right_vectors, v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tall", [False, True])
    def test_past_the_square_limit_raises_lapacks_error(self, tall):
        y = 2.0 * linalg.LARGEST_SQUARE_ROOT * conditioned(24, 60, 10.0, 6)[0]
        y = y.T if tall else y
        top = np.linalg.svd(y, compute_uv=False)[0]
        with pytest.raises(NumericalError) as raised:
            counted_svd(y)
        assert str(raised.value) == (
            f"the largest singular value {top:g} exceeds {linalg.LARGEST_SQUARE_ROOT:.4g}, "
            "the largest whose square is finite in double precision"
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(12, 40),
    st.floats(2.0, 5.0),
    st.booleans(),
    st.floats(0.0, float(np.log(1100.0))),
    st.integers(-30, 30),
    st.integers(0, 2**32 - 1),
)
def test_gram_route_matches_lapack(short, aspect, tall, log_kappa_sq, j, seed):
    # Routed shapes, wide and tall, at conditions kappa^2 up to the route's
    # bound of about 1126 and at scales 2^j.  The squared singular values are
    # held to the spectrum the matrix was built with: on a nearly flat
    # spectrum LAPACK's own are 2e-14 sigma_1^2 off it (kappa^2 = 1.02 at
    # 22 x 71), the Gram route's 1e-15.
    n, m = short, int(np.ceil(aspect * short))
    y, built = conditioned(n, m, np.exp(log_kappa_sq), seed)
    y, built = 2.0**j * (y.T if tall else y), 2.0**j * built
    fact, eighs, lapacks = counted_svd(y)
    assert (eighs, lapacks) == (1, 0)
    got = fact.singular_values
    assert np.max(np.abs(got**2 - built**2)) <= 1e-14 * built[0] ** 2
    # Tie decisions agree wherever no neighbour gap lies within rounding of
    # the tie tolerance 1e-12 sigma_1^2.
    gaps = np.abs(np.diff(built**2)) / built[0] ** 2
    if np.all(np.abs(gaps - linalg.DEGENERACY_RTOL) > 0.1 * linalg.DEGENERACY_RTOL):
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        assert np.array_equal(fact.tie_mask, linalg.SvdFactorization(s, u, vt.T).tie_mask)
    k = fact.rank_bound
    for vectors in (fact.left_vectors, fact.right_vectors):
        assert np.max(np.abs(vectors.T @ vectors - np.eye(k))) <= 1e-12
    rebuilt = (fact.left_vectors * got) @ fact.right_vectors.T
    assert np.max(np.abs(rebuilt - y)) <= 1e-13 * np.max(np.abs(y))
    anchors = fact.left_vectors[np.argmax(np.abs(fact.left_vectors), axis=0), np.arange(k)]
    assert np.all(anchors > 0)


class TestWeightsFunction:
    def test_weight_bounds(self):
        for bad in (1.2, -0.1, np.nan):
            with pytest.raises(DomainError, match="index 2"):
                weights_function([0.5, bad])
        with pytest.raises(DomainError, match="1-D"):
            weights_function([[0.5]])

    def test_weights_match_spectrum(self):
        fact = linalg.svd(np.eye(2))
        with pytest.raises(DomainError, match="1 weights given for 2 singular values"):
            linalg.reconstruct(fact, weights_function([0.5]))

    def test_values_and_derivs(self):
        fn = weights_function([0.25, 1.0, 0.0])
        s = np.array([4.0, 2.0, 1.0])
        np.testing.assert_array_equal(fn.values(s), [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(fn.derivs(s), [0.25, 1.0, 0.0])

    def test_copies_its_weights(self):
        weights = np.array([0.5, 0.5])
        fn = weights_function(weights)
        weights[0] = 1.0
        np.testing.assert_array_equal(fn.values(np.ones(2)), [0.5, 0.5])


class TestReconstruct:
    def test_identity_plan_reproduces_input(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((5, 8))
        fact = linalg.svd(y)
        recon = linalg.reconstruct(fact, weights_function(np.ones(5)))
        assert np.linalg.norm(recon - y) <= 1e-10 * np.linalg.norm(y)

    def test_empty_set_gives_zero(self):
        fact = linalg.svd(np.random.default_rng(5).standard_normal((4, 4)))
        out = linalg.reconstruct(fact, weights_function(np.zeros(4)))
        np.testing.assert_array_equal(out, np.zeros((4, 4)))

    def test_empty_set_with_clamp_gives_constant(self):
        fact = linalg.svd(np.random.default_rng(6).standard_normal((3, 4)))
        out = linalg.reconstruct(fact, weights_function(np.zeros(3), clamp_floor=1e-6))
        np.testing.assert_array_equal(out, np.full((3, 4), 1e-6))

    def test_rank_one_weighted_sum(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((6, 5))
        fact = linalg.svd(y)
        out = linalg.reconstruct(fact, weights_function([0.8, 0.0, 0.0, 0.0, 0.0]))
        expected = (
            0.8
            * fact.singular_values[0]
            * fact.left_vectors[:, 0].sum()
            * fact.right_vectors[:, 0].sum()
        )
        np.testing.assert_allclose(out.sum(), expected, rtol=1e-12)

    def test_out_of_range_index(self):
        fact = linalg.svd(np.eye(3))
        with pytest.raises(DomainError):
            linalg.reconstruct(fact, weights_function([0.0, 0.0, 0.0, 0.5]))


class TestDirectionalDerivative:
    def test_identity_map_returns_delta(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((5, 7))
        fact = linalg.svd(y)
        delta = rng.standard_normal((5, 7))
        s = fact.singular_values
        dd = linalg.directional_derivative(fact, s.copy(), np.ones_like(s), delta)
        np.testing.assert_allclose(dd, delta, atol=1e-10)

    def test_zero_map_returns_zero(self):
        rng = np.random.default_rng(9)
        fact = linalg.svd(rng.standard_normal((4, 6)))
        delta = rng.standard_normal((4, 6))
        z = np.zeros_like(fact.singular_values)
        dd = linalg.directional_derivative(fact, z, z, delta)
        np.testing.assert_array_equal(dd, np.zeros((4, 6)))

    def test_matches_finite_differences_smooth_map(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal((4, 3))
        delta = rng.standard_normal((4, 3))
        fact = linalg.svd(y)
        s = fact.singular_values
        dd = linalg.directional_derivative(fact, s**2, 2 * s, delta)
        h = 1e-6
        fd = (
            apply_spectral(y + h * delta, lambda t: t**2)
            - apply_spectral(y - h * delta, lambda t: t**2)
        ) / (2 * h)
        assert np.linalg.norm(dd - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_tall_matrix_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((7, 4))
        delta = rng.standard_normal((7, 4))
        fact = linalg.svd(y)
        s = fact.singular_values
        dd = linalg.directional_derivative(fact, 0.5 * s, 0.5 * np.ones_like(s), delta)
        h = 1e-6
        fd = (
            apply_spectral(y + h * delta, lambda t: 0.5 * t)
            - apply_spectral(y - h * delta, lambda t: 0.5 * t)
        ) / (2 * h)
        assert np.linalg.norm(dd - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_linear_in_delta(self):
        rng = np.random.default_rng(12)
        fact = linalg.svd(rng.standard_normal((6, 5)))
        s = fact.singular_values
        d1 = rng.standard_normal((6, 5))
        d2 = rng.standard_normal((6, 5))
        dd = lambda d: linalg.directional_derivative(fact, np.sqrt(s), 0.5 / np.sqrt(s), d)
        lhs = dd(d1 + d2)
        rhs = dd(d1) + dd(d2)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_degenerate_pair_raises_with_names(self):
        fact = linalg.svd(np.eye(3))
        with pytest.raises(DegenerateSpectrumError, match="1 and 2"):
            linalg.directional_derivative(
                fact, fact.singular_values, np.ones(3), np.ones((3, 3))
            )

    def test_collapsed_tail_ties_are_exempt(self):
        # Exactly rank-2 matrix: the zero tail is tied, but a map that kills
        # the tail (soft threshold above the tail) stays differentiable.
        rng = np.random.default_rng(13)
        u, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        y = (u * [3.0, 2.0]) @ v.T
        fact = linalg.svd(y)
        fn = linalg.soft_threshold_function(1.0)
        delta = rng.standard_normal((6, 5))
        dd = derivative_probe(fn, fact, delta)
        assert np.all(np.isfinite(dd))


class TestSpectralFunction:
    def test_call_applies_map(self):
        rng = np.random.default_rng(14)
        y = rng.standard_normal((5, 4))
        fn = SpectralFunction(lambda s: 0.5 * s, lambda s: 0.5 * np.ones_like(s))
        np.testing.assert_allclose(fn(y), apply_spectral(y, lambda s: 0.5 * s), atol=1e-12)

    def test_clamp_floor_applies(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal((4, 4))
        fn = SpectralFunction(lambda s: s.copy(), lambda s: np.ones_like(s), clamp_floor=0.1)
        assert fn(y).min() >= 0.1

    def test_clamp_floor_positive(self):
        for floor in (0.0, -1e-6, np.inf, np.nan):
            with pytest.raises(DomainError, match="clamp_floor must be positive"):
                SpectralFunction(lambda s: s, np.ones_like, clamp_floor=floor)
            with pytest.raises(DomainError, match="clamp_floor must be positive"):
                weights_function([0.5], clamp_floor=floor)

    def test_soft_threshold_tie_derivative(self):
        s = np.array([3.0, 2.0, 1.0])
        d = linalg.soft_threshold_derivs(s, 2.0)
        np.testing.assert_array_equal(d, [1.0, 0.5, 0.0])
