"""Information estimate, sandwich algebra, TIC and confidence bands."""

import tracemalloc

import numpy as np
import pytest

from ppfilt import objective
from ppfilt.design import ModelMatrices, make_delta_grid
from ppfilt.events import Trial, make_time_grid
from ppfilt.inference import (
    FitResult,
    filter_bands,
    fisher_hat,
    j_hat_matrix,
    penalty_pattern,
    sandwich_cov,
    tic,
    tic_trace_term,
)
from ppfilt.kernels import Kernel, gram_matrix, spectral_factorize
from ppfilt.links import identity_link, log_link, parse_family
from ppfilt.model import FitConfig, build_context
from ppfilt.objective import (
    Coefficients,
    FilterSpec,
    ObjectiveContext,
    gradient,
    linear_predictor,
    penalized_hessian,
)
from ppfilt.sparse import from_triplets

from conftest import build_t1_context, make_event_data


def dense_fisher_oracle(ctx, coef):
    """Row-by-row outer products with densely mapped design rows."""
    spec = ctx.spec
    xi = linear_predictor(ctx, coef)
    values, derivs = ctx.link.phi(xi)
    h_dense = ctx.design.toarray()
    dim = 1 + spec.n_channels * spec.q
    out = np.zeros((dim, dim))
    width = spec.design_block_width
    for l in range(ctx.n_rows):
        if ctx.delta_pad[l] == 0.0:
            continue
        x_row = [1.0]
        for i in range(spec.n_channels):
            block = h_dense[l, i * width : (i + 1) * width]
            if spec.mode == "direct":
                x_row.extend(spec.factor.factor.T @ block)
            else:
                # xi = z . V^-T beta, so the row in beta coordinates is V^-1 z
                x_row.extend(np.linalg.solve(spec.basis_factor.factor, block))
        x_row = np.asarray(x_row)
        w = derivs[l] ** 2 / values[l] * ctx.delta_pad[l]
        out += w * np.outer(x_row, x_row)
    return out


def multi_channel_pieces(mode, lam=0.2, base_n=300, delta_n=12, q=None, family=None, beta0=0.2):
    """Three channels, three trials (so three zero-weight first rows), xi within 1 of beta0."""
    data = make_event_data(n_trials=3, t_end=10.0, channels=("a", "b", "c"), seed=7)
    config = FitConfig(
        target="a", support=0.5, base_n=base_n, delta_n=delta_n, mode=mode,
        q=q or (5 if mode == "direct" else 6), family=family or log_link(), lam=lam,
    )
    ctx = build_context(data, config)
    beta = np.random.default_rng(9).normal(size=(3, ctx.spec.q))
    spread = np.abs(linear_predictor(ctx, Coefficients(beta0=0.0, beta=beta))).max()
    return ctx, Coefficients(beta0=beta0, beta=beta / spread)


def nll_hessian_by_differences(ctx, coef, step=1e-5):
    """Central differences of the analytic gradient of the penalized objective."""
    x = coef.pack()
    p, q = ctx.spec.n_channels, ctx.spec.q
    cols = []
    for i in range(len(x)):
        grads = []
        for sign in (1.0, -1.0):
            xs = x.copy()
            xs[i] += sign * step
            d0, dbeta = gradient(ctx, Coefficients.unpack(xs, p, q))
            grads.append(np.concatenate([[d0], dbeta.ravel()]))
        cols.append((grads[0] - grads[1]) / (2.0 * step))
    return np.column_stack(cols)


@pytest.fixture
def t1_fit_pieces(t1_trial, t1_grid, t1_direct_spec):
    ctx = build_t1_context(t1_trial, t1_grid, t1_direct_spec, lam=0.3)
    rng = np.random.default_rng(4)
    coef = Coefficients(beta0=0.4, beta=0.2 * rng.normal(size=(1, t1_direct_spec.q)))
    return ctx, coef


class TestFisherHat:
    def test_baseline_only_closed_form(self):
        trial = Trial(t_end=2.0, events={"a": [0.5, 1.5]})
        grid = make_time_grid(trial, "a", base_n=8)
        delta = make_delta_grid(0.5, 5)
        kernel = Kernel("sobolev2", support=0.5)
        factor = spectral_factorize(gram_matrix(kernel, delta.bin_lags))
        spec = FilterSpec(mode="direct", n_channels=0, delta=delta, kernel=kernel, factor=factor)
        h = from_triplets(grid.n + 1, 0, [])
        ctx = ObjectiveContext(
            [ModelMatrices(grid=grid, delta=delta, n_channels=0, h=h)], log_link(), 0.0, spec
        )
        for beta0 in [-0.3, 0.0, 1.1]:
            coef = Coefficients(beta0=beta0, beta=np.zeros((0, spec.q)))
            k_hat = fisher_hat(ctx, coef)
            assert k_hat.shape == (1, 1)
            # log link: integrand weight is exp(beta0), constant over [0, T]
            assert k_hat[0, 0] == pytest.approx(np.exp(beta0) * 2.0, rel=1e-12)

    def test_symmetric_psd(self, t1_fit_pieces):
        ctx, coef = t1_fit_pieces
        k_hat = fisher_hat(ctx, coef)
        np.testing.assert_allclose(k_hat, k_hat.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(k_hat)
        assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1.0)

    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_matches_dense_oracle(
        self, mode, t1_trial, t1_grid, t1_direct_spec, t1_basis_spec
    ):
        spec = t1_direct_spec if mode == "direct" else t1_basis_spec
        ctx = build_t1_context(t1_trial, t1_grid, spec, lam=0.1)
        rng = np.random.default_rng(6)
        coef = Coefficients(beta0=0.3, beta=0.15 * rng.normal(size=(1, spec.q)))
        k_hat = fisher_hat(ctx, coef)
        oracle = dense_fisher_oracle(ctx, coef)
        np.testing.assert_allclose(k_hat, oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("chunk_bytes", [None, 1000])
    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_multi_channel_multi_trial_matches_dense_oracle(self, mode, chunk_bytes, monkeypatch):
        if chunk_bytes is not None:  # a few rows per chunk: many chunk boundaries
            monkeypatch.setattr(objective, "_CHUNK_BYTES", chunk_bytes)
        ctx, coef = multi_channel_pieces(mode)
        spec = ctx.spec
        assert spec.n_channels == 3 and len(ctx.row_offsets) == 4
        assert np.count_nonzero(ctx.delta_pad == 0.0) == 3
        if mode == "direct":
            assert spec.q < spec.delta.n_bins
        k_hat = fisher_hat(ctx, coef)
        oracle = dense_fisher_oracle(ctx, coef)
        np.testing.assert_allclose(k_hat, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())

    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_log_link_information_is_the_nll_hessian(self, mode):
        # for phi = exp the jump term is linear in xi, so K_hat is exactly the Hessian
        ctx, coef = multi_channel_pieces(mode, lam=0.0)
        k_hat = fisher_hat(ctx, coef)
        hessian = nll_hessian_by_differences(ctx, coef)
        np.testing.assert_allclose(k_hat, hessian, rtol=0, atol=1e-6 * np.abs(k_hat).max())
        exact = penalized_hessian(ctx, coef.pack())
        np.testing.assert_allclose(exact, k_hat, rtol=1e-12, atol=1e-12 * np.abs(k_hat).max())

    @pytest.mark.parametrize("family", ["log", "logaffine:0", "logaffine:1", "identity"])
    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_penalized_hessian_matches_gradient_differences(self, mode, family):
        # identity needs xi > 0 on every row, so its baseline sits above the filter spread
        ctx, coef = multi_channel_pieces(
            mode, lam=0.3, family=parse_family(family), beta0=1.5 if family == "identity" else 0.2
        )
        exact = penalized_hessian(ctx, coef.pack())
        np.testing.assert_allclose(exact, exact.T, rtol=0, atol=0)
        hessian = nll_hessian_by_differences(ctx, coef)
        np.testing.assert_allclose(exact, hessian, rtol=0, atol=1e-6 * np.abs(exact).max())

    def test_working_memory_is_one_chunk(self):
        # N = 400 lag bins against q = 6: a dense copy of design rows (width p * N)
        # costs far more than a chunk of working-design rows (width 1 + p * q)
        ctx, coef = multi_channel_pieces("direct", base_n=20000, delta_n=400, q=6)
        n, dim = ctx.n_rows, 1 + 3 * 6
        rows = min(n, max(1, objective._CHUNK_BYTES // (8 * dim)))
        fisher_hat(ctx, coef)
        tracemalloc.start()
        try:
            fisher_hat(ctx, coef)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 4 * rows * dim * 8 + 4 * dim * dim * 8 + 8 * n * 8
        assert peak <= bound, f"peak {peak} B > bound {bound} B"

    def test_zero_intensity_error_names_row(self, t1_trial, t1_grid, t1_direct_spec):
        ctx = build_t1_context(t1_trial, t1_grid, t1_direct_spec, link=identity_link())
        coef = Coefficients(beta0=0.0, beta=np.zeros((1, t1_direct_spec.q)))
        with pytest.raises(ZeroDivisionError, match="grid row"):
            fisher_hat(ctx, coef)


class TestSandwich:
    def test_lambda_zero_is_inverse_fisher(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 6))
        k = a @ a.T + np.eye(6)
        cov = sandwich_cov(k, 0.0)
        np.testing.assert_allclose(cov, np.linalg.inv(k), rtol=1e-10)

    def test_large_lambda_shrinks_penalized_block(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        k = a @ a.T + np.eye(5)
        cov = sandwich_cov(k, 1e8)
        assert np.abs(cov[1:, 1:]).max() <= 1e-10

    def test_matches_explicit_inverse_multiply(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 7))
        k = a @ a.T + 0.5 * np.eye(7)
        lam = 1.0
        j = k + 2 * lam * penalty_pattern(7)
        expected = np.linalg.inv(j) @ k @ np.linalg.inv(j)
        np.testing.assert_allclose(sandwich_cov(k, lam), expected, rtol=1e-10)

    def test_j_minus_k_is_the_ridge_pattern(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        k = a @ a.T
        lam = 0.7
        diff = j_hat_matrix(k, lam) - k
        off_pattern = diff[penalty_pattern(4) == 0.0]
        np.testing.assert_array_equal(off_pattern, 0.0)
        np.testing.assert_allclose(np.diag(diff)[1:], 2 * lam, rtol=1e-14)

    def test_singular_j_raises(self):
        k = np.zeros((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            sandwich_cov(k, 0.0)


class TestTic:
    def test_lambda_zero_trace_is_dimension(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        k = a @ a.T + np.eye(6)
        assert tic(10.0, k, 0.0) == pytest.approx(10.0 + 6.0, abs=1e-8)

    def test_large_lambda_leaves_baseline_only(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        k = a @ a.T + np.eye(5)
        assert tic_trace_term(k, 1e12) == pytest.approx(1.0, abs=1e-6)

    def test_trace_monotone_nonincreasing_in_lambda(self, t1_fit_pieces):
        ctx, coef = t1_fit_pieces
        k_hat = fisher_hat(ctx, coef)
        lams = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
        traces = [tic_trace_term(k_hat, lam) for lam in lams]
        assert all(b <= a + 1e-10 for a, b in zip(traces, traces[1:]))

    def test_trace_bounded_by_dimension(self, t1_fit_pieces):
        ctx, coef = t1_fit_pieces
        k_hat = fisher_hat(ctx, coef)
        dim = k_hat.shape[0]
        for lam in [0.0, 0.5, 5.0]:
            assert tic_trace_term(k_hat, lam) <= dim + 1e-10


def make_fit_result(spec, coef, sandwich):
    dim = 1 + spec.n_channels * spec.q
    return FitResult(
        coef=coef,
        nll=1.0,
        penalized_nll=1.0,
        k_hat=np.eye(dim),
        j_hat=np.eye(dim),
        sandwich=sandwich,
        tic=2.0,
        lam=0.1,
        link="log",
        mode=spec.mode,
        converged=True,
        iterations=5,
        grad_norm=1e-8,
    )


class TestFilterBands:
    def test_zero_covariance_collapses_band(self, t1_direct_spec):
        spec = t1_direct_spec
        dim = 1 + spec.q
        coef = Coefficients(beta0=0.1, beta=np.ones((1, spec.q)))
        fit = make_fit_result(spec, coef, np.zeros((dim, dim)))
        band = filter_bands(fit, spec, 0, "a")
        np.testing.assert_array_equal(band.lower, band.estimate)
        np.testing.assert_array_equal(band.upper, band.estimate)

    def test_width_scales_with_sqrt_of_covariance_scale(self, t1_direct_spec):
        spec = t1_direct_spec
        dim = 1 + spec.q
        rng = np.random.default_rng(7)
        a = rng.normal(size=(dim, dim))
        base_cov = a @ a.T
        coef = Coefficients(beta0=0.1, beta=rng.normal(size=(1, spec.q)))
        band1 = filter_bands(make_fit_result(spec, coef, base_cov), spec, 0)
        band4 = filter_bands(make_fit_result(spec, coef, 4.0 * base_cov), spec, 0)
        np.testing.assert_allclose(
            band4.upper - band4.lower, 2.0 * (band1.upper - band1.lower), rtol=1e-12
        )

    def test_negative_variance_rejected(self, t1_direct_spec):
        spec = t1_direct_spec
        dim = 1 + spec.q
        cov = np.zeros((dim, dim))
        cov[1, 1] = -1.0
        coef = Coefficients(beta0=0.0, beta=np.zeros((1, spec.q)))
        with pytest.raises(ValueError, match="negative band variance"):
            filter_bands(make_fit_result(spec, coef, cov), spec, 0)

    def test_bounds_bracket_estimate(self, t1_direct_spec):
        spec = t1_direct_spec
        dim = 1 + spec.q
        rng = np.random.default_rng(8)
        a = rng.normal(size=(dim, dim))
        coef = Coefficients(beta0=0.0, beta=rng.normal(size=(1, spec.q)))
        band = filter_bands(make_fit_result(spec, coef, a @ a.T), spec, 0)
        assert np.all(band.lower <= band.estimate)
        assert np.all(band.estimate <= band.upper)
