"""SVD convention, spectral reconstruction, and the directional derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svshrink import linalg
from svshrink.errors import DegenerateSpectrumError, DomainError
from svshrink.linalg import SpectralFunction, weights_function

from helpers import apply_spectral


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
        dd = fn.derivative_probe(fact, delta)
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
        for floor in (0.0, -1e-6):
            with pytest.raises(DomainError, match="clamp_floor must be positive"):
                SpectralFunction(lambda s: s, np.ones_like, clamp_floor=floor)
            with pytest.raises(DomainError, match="clamp_floor must be positive"):
                weights_function([0.5], clamp_floor=floor)

    def test_soft_threshold_tie_derivative(self):
        s = np.array([3.0, 2.0, 1.0])
        d = linalg.soft_threshold_derivs(s, 2.0)
        np.testing.assert_array_equal(d, [1.0, 0.5, 0.0])
