"""Objective and gradient against brute-force, term-by-term oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from ppfilt.design import ModelMatrices, build_h, make_delta_grid
from ppfilt.events import Trial, make_time_grid
from ppfilt import objective
from ppfilt.kernels import Kernel, gram_matrix, spectral_factorize
from ppfilt.links import identity_link, log_link, logaffine_link, root_link
from ppfilt.model import FitConfig, build_context
from ppfilt.objective import (
    Coefficients,
    FilterSpec,
    ObjectiveContext,
    gradient,
    linear_predictor,
    nll,
    penalized_nll,
    penalized_value_and_grad,
    reconstruct_filter,
)
from ppfilt.sparse import SparseCsr
from ppfilt.splines import basis_eval_matrix

from conftest import build_t1_context, make_event_data
from oracles import (
    analytic_gradient_vector,
    brute_force_nll,
    brute_force_xi,
    finite_difference_gradient,
    from_triplets,
    spec_filter_values,
)


class TestLinearPredictor:
    def test_no_events_is_baseline(self, t1_direct_spec):
        trial = Trial(t_end=1.0, events={"a": []})
        grid = make_time_grid(trial, "a", base_n=10)
        ctx = build_t1_context(trial, grid, t1_direct_spec)
        coef = Coefficients(beta0=0.7, beta=np.full((1, t1_direct_spec.q), 0.3))
        np.testing.assert_array_equal(linear_predictor(ctx, coef), 0.7)

    def test_zero_coefficients_is_baseline(self, t1_direct_ctx):
        coef = Coefficients(beta0=-0.4, beta=np.zeros((1, t1_direct_ctx.spec.q)))
        np.testing.assert_array_equal(linear_predictor(t1_direct_ctx, coef), -0.4)

    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_t1_matches_brute_force(self, mode, t1_trial, t1_grid, t1_direct_spec, t1_basis_spec):
        spec = t1_direct_spec if mode == "direct" else t1_basis_spec
        ctx = build_t1_context(t1_trial, t1_grid, spec)
        rng = np.random.default_rng(12)
        coef = Coefficients(beta0=0.3, beta=rng.normal(size=(1, spec.q)))
        xi = linear_predictor(ctx, coef)
        oracle = brute_force_xi(
            t1_trial, t1_grid, spec.delta, ["a"], spec_filter_values(spec, coef.beta), 0.3
        )
        np.testing.assert_allclose(xi, oracle, rtol=1e-12, atol=1e-12)


class TestNll:
    def test_constant_intensity_closed_form(self):
        # baseline-only model, one target event at 0.5 on [0, 1]:
        # nll = exp(beta0) - beta0 because the Riemann sum of a constant is exact
        trial = Trial(t_end=1.0, events={"a": [0.5]})
        grid = make_time_grid(trial, "a", base_n=10)
        delta = make_delta_grid(0.5, 5)
        from ppfilt.kernels import Kernel, gram_matrix, spectral_factorize
        from ppfilt.objective import FilterSpec

        kernel = Kernel("sobolev2", support=0.5)
        factor = spectral_factorize(gram_matrix(kernel, delta.bin_lags))
        spec = FilterSpec(mode="direct", n_channels=0, delta=delta, kernel=kernel, factor=factor)
        h = from_triplets(grid.n + 1, 0, [])
        matrices = ModelMatrices(grid=grid, h=h)
        ctx = ObjectiveContext([matrices], log_link(), 0.0, spec)
        for beta0 in [-0.5, 0.0, 0.8]:
            coef = Coefficients(beta0=beta0, beta=np.zeros((0, spec.q)))
            assert nll(ctx, coef) == pytest.approx(np.exp(beta0) - beta0, rel=1e-14)

    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_t1_matches_term_by_term_oracle(
        self, mode, t1_trial, t1_grid, t1_direct_spec, t1_basis_spec
    ):
        spec = t1_direct_spec if mode == "direct" else t1_basis_spec
        ctx = build_t1_context(t1_trial, t1_grid, spec)
        rng = np.random.default_rng(5)
        coef = Coefficients(beta0=0.2, beta=0.5 * rng.normal(size=(1, spec.q)))
        oracle = brute_force_nll(
            t1_trial, t1_grid, spec.delta, ["a"],
            spec_filter_values(spec, coef.beta), coef.beta0, log_link(),
        )
        assert nll(ctx, coef) == pytest.approx(oracle, rel=1e-12)

    def test_identity_barrier_at_jump(self, t1_trial, t1_grid, t1_direct_spec):
        ctx = build_t1_context(t1_trial, t1_grid, t1_direct_spec, link=identity_link())
        coef = Coefficients(beta0=0.0, beta=np.zeros((1, t1_direct_spec.q)))
        assert nll(ctx, coef) == np.inf

    def test_trial_additivity(self, t1_direct_spec):
        trial_a = Trial(t_end=1.0, events={"a": [0.3, 0.6]})
        trial_b = Trial(t_end=1.0, events={"a": [0.21, 0.77]})
        spec = t1_direct_spec
        rng = np.random.default_rng(8)
        coef = Coefficients(beta0=0.1, beta=0.3 * rng.normal(size=(1, spec.q)))

        def ctx_for(trials):
            mats = []
            for trial in trials:
                grid = make_time_grid(trial, "a", base_n=10)
                h = build_h(trial, grid, spec.delta, ["a"])
                mats.append(ModelMatrices(grid=grid, h=h))
            return ObjectiveContext(mats, log_link(), 0.0, spec)

        combined = nll(ctx_for([trial_a, trial_b]), coef)
        separate = nll(ctx_for([trial_a]), coef) + nll(ctx_for([trial_b]), coef)
        assert combined == pytest.approx(separate, rel=1e-14)

    def test_convexity_probe_with_exp_link(self, t1_direct_ctx):
        rng = np.random.default_rng(3)
        q = t1_direct_ctx.spec.q
        for _ in range(20):
            a = Coefficients(beta0=rng.normal(), beta=rng.normal(size=(1, q)))
            b = Coefficients(beta0=rng.normal(), beta=rng.normal(size=(1, q)))
            mid = Coefficients(
                beta0=0.5 * (a.beta0 + b.beta0), beta=0.5 * (a.beta + b.beta)
            )
            lhs = nll(t1_direct_ctx, mid)
            rhs = 0.5 * (nll(t1_direct_ctx, a) + nll(t1_direct_ctx, b))
            assert lhs <= rhs + 1e-10


class TestPenalty:
    def test_zero_lambda_equals_nll(self, t1_trial, t1_grid, t1_direct_spec):
        ctx = build_t1_context(t1_trial, t1_grid, t1_direct_spec, lam=0.0)
        coef = Coefficients(beta0=0.3, beta=np.full((1, t1_direct_spec.q), 0.2))
        assert penalized_nll(ctx, coef) == nll(ctx, coef)

    def test_penalty_arithmetic(self, t1_trial, t1_grid, t1_direct_spec):
        ctx = build_t1_context(t1_trial, t1_grid, t1_direct_spec, lam=1.0)
        q = t1_direct_spec.q
        beta = np.zeros((1, q))
        beta[0, :2] = 1.0  # squared norm 2
        coef = Coefficients(beta0=0.3, beta=beta)
        assert penalized_nll(ctx, coef) == pytest.approx(nll(ctx, coef) + 2.0, rel=1e-14)

    def test_baseline_never_penalized(self, t1_trial, t1_grid, t1_direct_spec):
        ctx = build_t1_context(t1_trial, t1_grid, t1_direct_spec, lam=5.0)
        zero = Coefficients(beta0=3.0, beta=np.zeros((1, t1_direct_spec.q)))
        assert penalized_nll(ctx, zero) == nll(ctx, zero)


class TestGradient:
    @pytest.mark.parametrize("mode", ["direct", "basis"])
    @pytest.mark.parametrize(
        "link", [log_link(), logaffine_link(0.0), root_link(2.0)], ids=lambda l: l.describe()
    )
    def test_matches_finite_differences(
        self, mode, link, t1_trial, t1_grid, t1_direct_spec, t1_basis_spec
    ):
        spec = t1_direct_spec if mode == "direct" else t1_basis_spec
        ctx = build_t1_context(t1_trial, t1_grid, spec, link=link, lam=0.25)
        rng = np.random.default_rng(17)
        beta = 0.1 * rng.normal(size=(1, spec.q))
        # keep the jump-time predictors well inside the smooth positive region
        while np.min(linear_predictor(ctx, Coefficients(0.8, beta))[ctx.jump_idx]) < 0.2:
            beta *= 0.5
        coef = Coefficients(beta0=0.8, beta=beta)
        assert np.isfinite(nll(ctx, coef))
        ana = analytic_gradient_vector(ctx, coef)
        fd = finite_difference_gradient(ctx, coef)
        np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-8)

    def test_zero_matrices_leave_only_ridge(self, t1_direct_spec):
        trial = Trial(t_end=1.0, events={"a": []})
        grid = make_time_grid(trial, "a", base_n=10)
        ctx = build_t1_context(trial, grid, t1_direct_spec, lam=0.7)
        rng = np.random.default_rng(2)
        coef = Coefficients(beta0=0.4, beta=rng.normal(size=(1, t1_direct_spec.q)))
        _, dbeta = gradient(ctx, coef)
        np.testing.assert_allclose(dbeta, 2 * 0.7 * coef.beta, rtol=1e-12)

    def test_zero_beta_has_no_penalty_gradient(self, t1_trial, t1_grid, t1_direct_spec):
        ctx_pen = build_t1_context(t1_trial, t1_grid, t1_direct_spec, lam=2.0)
        ctx_raw = build_t1_context(t1_trial, t1_grid, t1_direct_spec, lam=0.0)
        coef = Coefficients(beta0=0.4, beta=np.zeros((1, t1_direct_spec.q)))
        _, with_pen = gradient(ctx_pen, coef)
        _, without = gradient(ctx_raw, coef)
        np.testing.assert_array_equal(with_pen, without)

    def test_rejects_infinite_point(self, t1_trial, t1_grid, t1_direct_spec):
        ctx = build_t1_context(t1_trial, t1_grid, t1_direct_spec, link=identity_link())
        coef = Coefficients(beta0=-1.0, beta=np.zeros((1, t1_direct_spec.q)))
        with pytest.raises(ValueError, match="\\+inf"):
            gradient(ctx, coef)


class TestValueAndGrad:
    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_one_pass_equals_separate_calls(self, mode, monkeypatch):
        config = FitConfig(
            target="a", inputs=["a", "b"], support=0.5, base_n=200, delta_n=20,
            mode=mode, q=6 if mode == "basis" else None, family=logaffine_link(0.0), lam=0.3,
        )
        ctx = build_context(make_event_data(seed=4), config)
        p, q = ctx.spec.n_channels, ctx.spec.q
        vec = np.concatenate([[-0.2], 0.3 * np.random.default_rng(5).normal(size=p * q)])
        coef = Coefficients.unpack(vec, p, q)
        d0, dbeta = gradient(ctx, coef)
        want_grad = np.concatenate([[d0], dbeta.ravel()])
        want_value = penalized_nll(ctx, coef)

        calls = {"spmv": 0, "spmv_t": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(objective, "spmv", counting("spmv", objective.spmv))
        monkeypatch.setattr(objective, "spmv_t", counting("spmv_t", objective.spmv_t))
        value, grad = penalized_value_and_grad(ctx, vec)
        assert calls == {"spmv": 1, "spmv_t": 1}
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def direct_context(design, n_channels, n_bins=4):
    """Direct-mode context over the SparseCsr design: n_channels channels of n_bins lag bins."""
    trial = Trial(t_end=1.0, events={"a": np.empty(0)})
    grid = make_time_grid(trial, "a", base_n=design.nrows - 1)
    delta = make_delta_grid(0.5, n_bins)
    kernel = Kernel(family="sobolev2", support=0.5)
    factor = spectral_factorize(gram_matrix(kernel, delta.bin_lags))
    spec = FilterSpec(
        mode="direct", n_channels=n_channels, delta=delta, kernel=kernel, factor=factor
    )
    matrices = ModelMatrices(grid=grid, h=design)
    return ObjectiveContext([matrices], log_link(), 0.0, spec)


def three_channel_context(n_rows=12, n_bins=4, width=12):
    """Direct-mode context, 3 channels of n_bins lag bins, over a random (n_rows, width) H."""
    rng = np.random.default_rng(11)
    rows, cols = rng.integers(0, n_rows, 30), rng.integers(0, width, 30)
    h = from_triplets(n_rows, width, (rows, cols, rng.normal(size=30)))
    return direct_context(h, 3, n_bins)


def design_context(h, n_channels, n_bins=4):
    """direct_context over the dense design h."""
    rows, cols = np.nonzero(h)
    return direct_context(from_triplets(*h.shape, (rows, cols, h[rows, cols])), n_channels, n_bins)


def dense_gram(ctx, weights):
    """sum_l weights_l x_l x_l^T from the densified working design."""
    blocks = block_diag(*[ctx.spec.block_map] * ctx.spec.n_channels)
    x = np.hstack([np.ones((ctx.n_rows, 1)), ctx.design.toarray() @ blocks])
    return x.T @ (weights[:, None] * x)


def sparse_design(rng, n_rows, width, empty_rows=(), empty_cols=()):
    """Random dense (n_rows, width) matrix, about half zeros, with the given rows and columns zero."""
    h = rng.normal(size=(n_rows, width)) * (rng.uniform(size=(n_rows, width)) < 0.5)
    h[list(empty_rows)] = 0.0
    h[:, list(empty_cols)] = 0.0
    return h


class TestWeightedGram:
    @pytest.mark.parametrize("lo, hi", [(0, 12), (3, 7), (5, 5)])
    def test_matches_dense_blockdiag(self, lo, hi, monkeypatch):
        # the weights select rows lo:hi; 5-row chunks make them cross chunk edges
        ctx = three_channel_context()
        u = ctx.spec.block_map
        monkeypatch.setattr(objective, "_CHUNK_BYTES", 8 * (1 + 3 * ctx.spec.q) * 5)
        weights = np.zeros(ctx.n_rows)
        weights[lo:hi] = np.random.default_rng(2).uniform(0.5, 2.0, size=hi - lo)
        x = np.hstack([np.ones((ctx.n_rows, 1)), ctx.design.toarray() @ block_diag(u, u, u)])
        expected = x[lo:hi].T @ (weights[lo:hi, None] * x[lo:hi])
        got = objective._weighted_gram(ctx, weights)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize(
        "empty_rows, empty_channel",
        [
            ((0, 5, 11), None),  # scattered rows with no nonzeros
            ((), 1),  # the middle channel has no events
            ((), 2),  # the last channel has no events
            (range(2, 9), 0),  # 2-row chunks 1 to 3 hold only empty rows
            (range(12), None),  # no nonzeros at all
        ],
    )
    def test_empty_rows_and_channels(self, empty_rows, empty_channel, monkeypatch):
        n_bins, p = 4, 3
        empty_cols = () if empty_channel is None else range(
            empty_channel * n_bins, (empty_channel + 1) * n_bins
        )
        h = sparse_design(np.random.default_rng(5), 12, p * n_bins, empty_rows, empty_cols)
        ctx = design_context(h, p, n_bins)
        monkeypatch.setattr(objective, "_CHUNK_BYTES", 8 * (1 + p * ctx.spec.q) * 2)
        weights = np.random.default_rng(6).uniform(0.5, 2.0, size=ctx.n_rows)
        got = objective._weighted_gram(ctx, weights)
        np.testing.assert_allclose(got, dense_gram(ctx, weights), rtol=1e-13, atol=1e-14)
        np.testing.assert_array_equal(got, got.T)

    def test_no_channels(self):
        ctx = design_context(np.zeros((12, 0)), 0)
        weights = np.random.default_rng(7).uniform(0.5, 2.0, size=ctx.n_rows)
        got = objective._weighted_gram(ctx, weights)
        assert got.shape == (1, 1)
        np.testing.assert_allclose(got, [[weights.sum()]], rtol=1e-15)

    def test_negative_weight_rejected(self):
        ctx = three_channel_context()
        weights = np.ones(ctx.n_rows)
        weights[4] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            objective._weighted_gram(ctx, weights)

    def test_index_built_once_and_shared_by_with_link(self):
        ctx = three_channel_context()
        weights = np.ones(ctx.n_rows)
        other = ctx.with_link(identity_link(), 0.5)
        assert (other.link.family, other.lam, ctx.lam) == ("identity", 0.5, 0.0)
        assert other.design is ctx.design
        objective._weighted_gram(other, weights)
        segments, stacked = objective._gram_operands(other)
        assert objective._gram_operands(ctx)[0] is segments
        # entry r p + i is where channel i's columns begin in row r
        p, width = 3, ctx.spec.design_block_width
        design = ctx.design
        for r in range(ctx.n_rows):
            cols = design.col_idx[design.row_ptr[r] : design.row_ptr[r + 1]]
            for i in range(p):
                assert segments[r * p + i] == design.row_ptr[r] + np.sum(cols < i * width)
        assert segments[-1] == design.nnz and segments.dtype == design.col_idx.dtype
        np.testing.assert_array_equal(stacked, np.vstack([ctx.spec.block_map] * p))
        with pytest.raises(ValueError, match="nonnegative"):
            ctx.with_link(log_link(), -0.1)

    def test_rejects_rows_out_of_channel_order(self):
        # the second row holds a channel-2 column before a channel-0 column
        cols = np.array([0, 9, 1], np.int32)
        h = SparseCsr(2, 12, np.array([0, 1, 3], np.int32), cols, np.ones(3))
        ctx = direct_context(h, 3)
        with pytest.raises(ValueError, match="channel order"):
            objective._weighted_gram(ctx, np.ones(2))

    def test_context_rejects_design_width(self):
        with pytest.raises(ValueError, match="design width"):
            three_channel_context(width=11)


class TestCsrKernel:
    """objective._weighted_gram calls scipy's private csr_matvecs in place.

    These pin it to the public csr @ dense product, on a row-pointer slice
    over the full index and value arrays as the Gram passes it, so a change
    to the kernel fails here.
    """

    @pytest.mark.parametrize(
        "n_rows, n_cols, empty_rows",
        [(9, 7, (0, 3, 4, 8)), (6, 5, range(6)), (0, 4, ()), (4, 0, ()), (30, 11, (7,))],
    )
    def test_accumulates_the_public_product(self, n_rows, n_cols, empty_rows):
        rng = np.random.default_rng(n_rows * 31 + n_cols)
        h = sparse_design(rng, n_rows, n_cols, empty_rows)
        a = sp.csr_matrix(h)
        a.indptr, a.indices = a.indptr.astype(np.int32), a.indices.astype(np.int32)
        x = rng.normal(size=(n_cols, 3))
        expected = a @ x
        out = np.zeros((n_rows, 3))
        objective.csr_matvecs(n_rows, n_cols, 3, a.indptr, a.indices, a.data, x, out)
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=0)
        # it adds to what the output holds
        objective.csr_matvecs(n_rows, n_cols, 3, a.indptr, a.indices, a.data, x, out)
        np.testing.assert_allclose(out, 2 * expected, rtol=1e-13, atol=0)
        # a pointer slice addresses rows lo:hi of the full arrays without a copy
        lo, hi = n_rows // 3, n_rows - n_rows // 4
        part = np.zeros((hi - lo, 3))
        objective.csr_matvecs(
            hi - lo, n_cols, 3, a.indptr[lo : hi + 1], a.indices, a.data, x, part
        )
        np.testing.assert_allclose(part, expected[lo:hi], rtol=1e-13, atol=0)


class TestFilterSpecMaps:
    def test_direct_maps_are_the_factor(self, t1_direct_spec):
        u = t1_direct_spec.factor.factor
        assert t1_direct_spec.block_map is u and t1_direct_spec.curve_map is u
        assert (t1_direct_spec.design_block_width, t1_direct_spec.q) == u.shape

    def test_basis_maps(self, t1_basis_spec):
        spec = t1_basis_spec
        v = spec.basis_factor.factor
        # block_map is V^-T; curve_map evaluates the expansion at the bin lags
        np.testing.assert_allclose(v.T @ spec.block_map, np.eye(spec.q), atol=1e-12)
        b_eval = basis_eval_matrix(spec.basis, spec.delta.bin_lags)
        np.testing.assert_array_equal(spec.curve_map, b_eval @ spec.block_map)
        assert (spec.design_block_width, spec.q) == (spec.basis.q, spec.basis.q)


class TestReconstructFilter:
    def test_zero_block(self, t1_direct_spec):
        curve = reconstruct_filter(t1_direct_spec, np.zeros(t1_direct_spec.q))
        np.testing.assert_array_equal(curve, 0.0)

    def test_unit_vector_gives_factor_column(self, t1_direct_spec):
        e1 = np.zeros(t1_direct_spec.q)
        e1[0] = 1.0
        curve = reconstruct_filter(t1_direct_spec, e1)
        np.testing.assert_array_equal(curve, t1_direct_spec.factor.factor[:, 0])

    def test_basis_curve_consistent_with_predictor_path(self, t1_basis_spec):
        # the reconstructed curve must be the same binned filter the
        # linear predictor applies (same expansion coefficients)
        rng = np.random.default_rng(21)
        beta = rng.normal(size=(1, t1_basis_spec.q))
        curve = reconstruct_filter(t1_basis_spec, beta[0])
        np.testing.assert_allclose(
            curve, spec_filter_values(t1_basis_spec, beta)[0], rtol=1e-12, atol=1e-12
        )

    def test_least_squares_round_trip(self, t1_direct_spec):
        lags = t1_direct_spec.delta.bin_lags
        target = np.sin(4 * lags) + 0.3
        u = t1_direct_spec.factor.factor
        beta, *_ = np.linalg.lstsq(u, target, rcond=None)
        recon = reconstruct_filter(t1_direct_spec, beta)
        projection = u @ beta
        np.testing.assert_allclose(recon, projection, atol=1e-10)
        # full-rank factor on 5 lag points reproduces the curve itself
        assert np.abs(recon - target).max() <= 1e-6
