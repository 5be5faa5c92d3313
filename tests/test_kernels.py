"""Kernel evaluations, Gram matrices and factorizations."""

import numpy as np
import pytest

from ppfilt.kernels import (
    Kernel,
    gram_matrix,
    kernel_eval,
    spectral_factorize,
    threshold_for_rank,
)


def sobolev_quadrature_oracle(s, u, n=200_001):
    """<R(s,.), R(u,.)> = 1 + s u + integral of (s-v)+ (u-v)+ dv."""
    v = np.linspace(0.0, max(s, u), n)
    integrand = np.maximum(s - v, 0.0) * np.maximum(u - v, 0.0)
    return 1.0 + s * u + np.trapezoid(integrand, v)


class TestKernelEval:
    def test_sobolev_at_origin(self):
        k = Kernel("sobolev2", support=1.0)
        assert kernel_eval(k, 0.0, 0.0) == 1.0

    def test_sobolev_symmetry(self):
        k = Kernel("sobolev2", support=1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s, u = rng.uniform(0, 1, size=2)
            assert kernel_eval(k, s, u) == pytest.approx(kernel_eval(k, u, s), rel=1e-15)

    def test_sobolev_value_against_quadrature(self):
        k = Kernel("sobolev2", support=1.0)
        assert kernel_eval(k, 1.0, 1.0) == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert kernel_eval(k, 1.0, 1.0) == pytest.approx(
            sobolev_quadrature_oracle(1.0, 1.0), rel=1e-9
        )
        rng = np.random.default_rng(1)
        for _ in range(5):
            s, u = rng.uniform(0, 1, size=2)
            assert kernel_eval(k, s, u) == pytest.approx(
                sobolev_quadrature_oracle(s, u), rel=1e-7
            )

    def test_lag_bounds_enforced(self):
        k = Kernel("sobolev2", support=0.5)
        with pytest.raises(ValueError):
            kernel_eval(k, 0.6, 0.1)
        with pytest.raises(ValueError):
            kernel_eval(k, -0.1, 0.1)

    def test_gaussian(self):
        k = Kernel("gaussian", support=1.0, bandwidth=0.2)
        assert kernel_eval(k, 0.3, 0.3) == 1.0
        assert kernel_eval(k, 0.0, 0.2) == pytest.approx(np.exp(-0.5))


class TestGramMatrix:
    def test_single_point(self):
        g = gram_matrix(Kernel("sobolev2", support=1.0), np.array([0.0]))
        np.testing.assert_array_equal(g, [[1.0]])

    @pytest.mark.parametrize(
        "kernel",
        [Kernel("sobolev2", support=0.4), Kernel("gaussian", support=0.4, bandwidth=0.1)],
    )
    def test_symmetric_psd(self, kernel):
        grid = np.linspace(0, 0.4, 40)
        g = gram_matrix(kernel, grid)
        np.testing.assert_array_equal(g, g.T)
        eigvals = np.linalg.eigvalsh(g)
        assert eigvals.min() >= -1e-10 * eigvals.max()

    def test_gaussian_wide_bandwidth_limit(self):
        grid = np.linspace(0, 0.4, 10)
        g = gram_matrix(Kernel("gaussian", support=0.4, bandwidth=1e6), grid)
        np.testing.assert_allclose(g, np.ones((10, 10)), atol=1e-10)


class TestSpectralFactorize:
    def test_rank_one(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor = spectral_factorize(g, 1e-8)
        assert factor.rank == 1
        np.testing.assert_allclose(factor.factor @ factor.factor.T, g, atol=1e-12)

    def test_identity(self):
        factor = spectral_factorize(np.eye(3), 1e-8)
        assert factor.rank == 3
        np.testing.assert_allclose(
            factor.factor.T @ factor.factor, np.eye(3), atol=1e-12
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_factorize(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_orthogonal_columns(self):
        grid = np.linspace(0, 0.4, 30)
        g = gram_matrix(Kernel("sobolev2", support=0.4), grid)
        factor = spectral_factorize(g, 1e-8)
        gram_cols = factor.factor.T @ factor.factor
        off = gram_cols - np.diag(np.diag(gram_cols))
        assert np.abs(off).max() <= 1e-10 * np.abs(gram_cols).max()

    def test_threshold_tuned_to_target_rank(self):
        # the benchmark configuration: N = 200 lag grid, spectrum cut at q = 33
        grid = np.linspace(0, 0.4, 200, endpoint=False)
        g = gram_matrix(Kernel("sobolev2", support=0.4), grid)
        thr = threshold_for_rank(g, 33)
        factor = spectral_factorize(g, thr)
        assert factor.rank == 33
        rel_err = np.linalg.norm(g - factor.factor @ factor.factor.T) / np.linalg.norm(g)
        assert rel_err <= 10 * thr

    def test_eigh_residual_bound(self):
        grid = np.linspace(0, 0.4, 100)
        g = gram_matrix(Kernel("sobolev2", support=0.4), grid)
        eigvals, eigvecs = np.linalg.eigh(g)
        residual = np.linalg.norm(g @ eigvecs - eigvecs * eigvals)
        assert residual <= 1e-8 * np.linalg.norm(g)


class TestIsometry:
    @pytest.mark.parametrize("n_points,threshold", [(30, 1e-8), (60, 1e-6)])
    def test_norm_identity_on_retained_space(self, n_points, threshold):
        grid = np.linspace(0, 0.4, n_points, endpoint=False)
        g = gram_matrix(Kernel("sobolev2", support=0.4), grid)
        factor = spectral_factorize(g, threshold)
        pinv = np.linalg.pinv(g, rcond=threshold)
        rng = np.random.default_rng(9)
        for _ in range(20):
            beta = rng.normal(size=factor.rank)
            values = factor.factor @ beta
            beta0 = pinv @ values
            assert beta0 @ g @ beta0 == pytest.approx(beta @ beta, rel=1e-6)
