"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria with stated
runtime budgets assert them.  The timing-sensitive scaling study (criterion
10) uses interleaved repetitions to defend against machine load drift.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ppfilt.bench import hawkes_like_data, run_cells
from ppfilt.design import ModelMatrices, build_h, make_delta_grid
from ppfilt.events import Trial, make_time_grid
from ppfilt.inference import filter_bands, fisher_hat, sandwich_cov, tic_trace_term
from ppfilt.kernels import Kernel, gram_matrix, spectral_factorize
from ppfilt.links import identity_link, log_link, logaffine_link, root_link
from ppfilt.model import FitConfig, build_context, fit, model_scan
from ppfilt.objective import (
    Coefficients,
    FilterSpec,
    ObjectiveContext,
    linear_predictor,
    nll,
    reconstruct_filter,
)
from ppfilt.optimize import OptimSettings
from ppfilt.simulate import (
    ExpFilter,
    SimConfig,
    compensator_increments,
    exp_hawkes_intensity,
    simulate_trials,
    thinning_simulate,
)
from ppfilt.splines import basis_gram, make_basis

from oracles import (
    analytic_gradient_vector,
    brute_force_nll,
    finite_difference_gradient,
    spec_filter_values,
)

GRAD_FAMILIES = [log_link(), logaffine_link(0.0), root_link(2.0)]


def _report(number: int, title: str) -> None:
    print(f"\n[acceptance] criterion {number} ({title}): PASS")


def make_specs(n_channels, support=0.4, delta_n=12, q_basis=6, threshold=1e-6):
    delta = make_delta_grid(support, delta_n)
    kernel = Kernel("sobolev2", support=support)
    factor = spectral_factorize(gram_matrix(kernel, delta.bin_lags), threshold)
    direct = FilterSpec(
        mode="direct", n_channels=n_channels, delta=delta, kernel=kernel, factor=factor
    )
    basis = make_basis(support, q_basis)
    bfactor = basis_gram(basis, "second_derivative")
    basis_spec = FilterSpec(
        mode="basis", n_channels=n_channels, delta=delta, basis=basis, basis_factor=bfactor
    )
    return direct, basis_spec


def context_for(trial, target, channels, spec, link, lam, base_n):
    grid = make_time_grid(trial, target, base_n)
    mats = ModelMatrices(grid=grid, h=build_h(trial, grid, spec.delta, channels))
    return ObjectiveContext([mats], link, lam, spec)


def random_instance(rng, max_channels=3, max_events=50):
    p = int(rng.integers(1, max_channels + 1))
    channels = [f"ch{i}" for i in range(p)]
    per_channel = max_events // p
    events = {}
    for ch in channels:
        k = int(rng.integers(3, min(13, per_channel + 1)))
        events[ch] = np.unique(rng.uniform(0.02, 1.48, size=k))
    trial = Trial(t_end=1.5, events=events)
    base_n = int(rng.integers(80, 150))
    return trial, channels, base_n


def feasible_coef(ctx, rng, margin=0.25, ceiling=3.0):
    """Random but well-conditioned point: jump predictors above the root-link
    kink, all predictors bounded so no family saturates."""
    beta0 = 0.6
    beta = 0.15 * rng.normal(size=(ctx.spec.n_channels, ctx.spec.q))
    for _ in range(40):
        xi = linear_predictor(ctx, Coefficients(beta0, beta))
        jumps_ok = len(ctx.jump_idx) == 0 or xi[ctx.jump_idx].min() >= margin
        if jumps_ok and np.abs(xi).max() <= ceiling:
            break
        beta *= 0.5
    return Coefficients(beta0=beta0, beta=beta)


class TestCriterion1:
    def test_gradient_exactness(self):
        """Analytic gradients match central differences on T1 + 10 random instances."""
        start = time.monotonic()
        rng = np.random.default_rng(123)
        instances = [(Trial(t_end=1.0, events={"ch0": np.array([0.3, 0.6])}), ["ch0"], 10)]
        for _ in range(10):
            instances.append(random_instance(rng))
        for trial, channels, base_n in instances:
            direct_spec, basis_spec = make_specs(len(channels))
            for spec in (direct_spec, basis_spec):
                for family in GRAD_FAMILIES:
                    ctx = context_for(
                        trial, channels[0], channels, spec, family, lam=0.1, base_n=base_n
                    )
                    coef = feasible_coef(ctx, rng)
                    assert np.isfinite(nll(ctx, coef))
                    ana = analytic_gradient_vector(ctx, coef)
                    fd = finite_difference_gradient(ctx, coef)
                    np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-8)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        _report(1, "gradient exactness, both modes, three families")


class TestCriterion2:
    def test_likelihood_oracle(self):
        """nll on T1 equals the term-by-term brute force to 1e-12 relative."""
        start = time.monotonic()
        trial = Trial(t_end=1.0, events={"a": np.array([0.3, 0.6])})
        grid = make_time_grid(trial, "a", 10)
        direct_spec, _ = make_specs(1, support=0.5, delta_n=5)
        ctx = context_for(trial, "a", ["a"], direct_spec, log_link(), 0.0, 10)
        rng = np.random.default_rng(7)
        for _ in range(5):
            coef = Coefficients(beta0=0.3, beta=0.4 * rng.normal(size=(1, direct_spec.q)))
            oracle = brute_force_nll(
                trial, grid, direct_spec.delta, ["a"],
                spec_filter_values(direct_spec, coef.beta), coef.beta0, log_link(),
            )
            assert nll(ctx, coef) == pytest.approx(oracle, rel=1e-12)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        _report(2, "likelihood equals brute-force oracle")


class TestCriterion3:
    def test_non_anticipation(self):
        """An input event exactly at grid time t_l leaves xi_l unchanged, exactly."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            trial, channels, base_n = random_instance(rng, max_channels=2)
            if len(channels) == 1:
                channels = channels + ["extra"]
                trial = Trial(t_end=trial.t_end, events={**trial.events, "extra": []})
            target, other = channels[0], channels[1]
            grid = make_time_grid(trial, target, base_n)
            non_jump = np.setdiff1d(np.arange(1, grid.n), grid.jump_indices)
            t_star = grid.points[int(rng.choice(non_jump))]
            if t_star in trial.events[other]:
                continue
            bumped_events = dict(trial.events)
            bumped_events[other] = np.sort(np.append(trial.events[other], t_star))
            bumped = Trial(t_end=trial.t_end, events=bumped_events)
            direct_spec, _ = make_specs(len(channels))
            ctx_a = context_for(trial, target, channels, direct_spec, log_link(), 0.0, base_n)
            ctx_b = context_for(bumped, target, channels, direct_spec, log_link(), 0.0, base_n)
            coef = feasible_coef(ctx_a, rng)
            xi_a = linear_predictor(ctx_a, coef)
            xi_b = linear_predictor(ctx_b, coef)
            row = int(np.flatnonzero(grid.points == t_star)[0])
            assert xi_b[row] == xi_a[row]  # exact float equality
        _report(3, "non-anticipation at grid times")


class TestCriterion4:
    def test_isometry_identities(self):
        """||beta||^2 equals the Hilbert norm form in both parametrizations."""
        rng = np.random.default_rng(11)
        delta = make_delta_grid(0.4, 32)
        kernel = Kernel("sobolev2", support=0.4)
        gram = gram_matrix(kernel, delta.bin_lags)
        threshold = 1e-8
        factor = spectral_factorize(gram, threshold)
        pinv = np.linalg.pinv(gram, rcond=threshold)
        for _ in range(100):
            beta = rng.normal(size=factor.rank)
            beta0_coefs = pinv @ (factor.factor @ beta)
            assert beta0_coefs @ gram @ beta0_coefs == pytest.approx(beta @ beta, rel=1e-6)
        bfactor = basis_gram(make_basis(0.4, 12), "second_derivative")
        for _ in range(100):
            beta = rng.normal(size=12)
            beta0_coefs = bfactor.expansion_coefs(beta)
            assert beta0_coefs @ bfactor.gram @ beta0_coefs == pytest.approx(
                beta @ beta, rel=1e-6
            )
        _report(4, "isometry identities in both modes")


class TestCriterion5:
    def test_exponential_recursion(self):
        """Recursive intensity equals direct summation on 100-event streams."""
        start = time.monotonic()
        rng = np.random.default_rng(3)
        for _ in range(20):
            events = np.unique(rng.uniform(0, 50, size=100))
            alpha = -float(rng.uniform(0.5, 5.0))
            beta = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(25, 60))
            direct = float(np.sum(np.exp(alpha * (t - events[events < t]) + beta)))
            recursive = exp_hawkes_intensity(events, alpha, beta, t)
            assert recursive == pytest.approx(direct, rel=1e-12)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        _report(5, "exponential filter recursion vs direct sum")


class TestCriterion6:
    def test_simulation_correctness(self):
        """Poisson count test and time-rescaling KS test over seeds 1..5."""
        start = time.monotonic()
        for seed in range(1, 6):
            poisson = SimConfig(
                channels=["a"], t_end=1000.0, link=identity_link(), baseline=2.0, seed=seed
            )
            count = thinning_simulate(poisson).trials[0].count("a")
            assert abs(count - 2000) <= 4 * np.sqrt(2000), f"seed {seed}: count {count}"
            hawkes = SimConfig(
                channels=["a"],
                t_end=500.0,
                link=identity_link(),
                baseline=1.0,
                filters={("a", "a"): ExpFilter(-5.0, float(np.log(3.0)))},
                seed=seed,
            )
            trial = thinning_simulate(hawkes).trials[0]
            increments = compensator_increments(trial, hawkes, "a")
            assert len(increments) >= 500
            statistic = stats.kstest(increments, "expon").statistic
            critical = 1.628 / np.sqrt(len(increments))  # 1% asymptotic level
            assert statistic <= critical, f"seed {seed}: KS {statistic:.4f} > {critical:.4f}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        _report(6, "Poisson counts and time-rescaling KS at 1%")


@pytest.fixture(scope="module")
def recovery_setup():
    """Feed-forward two-channel model with the known exponential filter.

    With these filter values an exp-link feedback loop explodes, so the
    ground truth drives the target from an autonomous input channel.
    """
    cfg = SimConfig(
        channels=["drive", "resp"],
        t_end=40.0,
        link=log_link(),
        baseline={"drive": float(np.log(2.0)), "resp": 0.0},
        filters={("resp", "drive"): ExpFilter(-10.0, 0.5)},
        seed=7,
    )
    data = simulate_trials(cfg, 5)
    config = FitConfig(
        target="resp",
        inputs=["drive", "resp"],
        support=0.4,
        base_n=4000,
        delta_n=100,
        mode="direct",
        family=log_link(),
        lam=0.1,
        optim=OptimSettings(max_iter=2000),
    )
    scan = model_scan(data, config, c_grid=[math.inf], lam_grid=[0.01, 0.1, 1.0])
    best = fit(data, replace(config, lam=scan.best.lam))
    return data, config, scan, best


class TestCriterion7:
    def test_recovery_at_desk_scale(self, recovery_setup):
        """True filter inside its 95% band at >= 80% of lags; shape matches."""
        start = time.monotonic()
        data, config, scan, best = recovery_setup
        assert best.converged
        spec = best.extras["spec"]
        band = filter_bands(best, spec, 0, "drive")
        truth = np.exp(-10.0 * band.lags + 0.5)
        coverage = float(np.mean((band.lower <= truth) & (truth <= band.upper)))
        assert coverage >= 0.8, f"coverage {coverage:.2f}"
        # shape: initial positive lobe, decay toward zero at long lags
        assert np.all(band.estimate[:5] > 0)
        tail = np.abs(band.estimate[band.lags > 0.3])
        assert tail.mean() <= 0.25 * band.estimate.max()
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        _report(7, f"filter recovery, coverage {coverage:.2f}")


class TestCriterion8:
    def test_mode_agreement(self, recovery_setup):
        """Direct and basis fits differ by <= 10% of the curve range.

        Penalties are matched by giving the spline basis the same inner
        product that defines the kernel norm.
        """
        data, config, scan, best = recovery_setup
        q_direct = best.extras["q"]
        basis_config = replace(config, mode="basis", q=q_direct, inner_product="sobolev2")
        basis_scan = model_scan(data, basis_config, c_grid=[math.inf], lam_grid=[0.01, 0.1, 1.0])
        basis_best = fit(data, replace(basis_config, lam=basis_scan.best.lam))
        assert basis_best.converged
        curve_direct = reconstruct_filter(best.extras["spec"], np.asarray(best.coef.beta)[0])
        curve_basis = reconstruct_filter(
            basis_best.extras["spec"], np.asarray(basis_best.coef.beta)[0]
        )
        span = curve_direct.max() - curve_direct.min()
        gap = float(np.abs(curve_direct - curve_basis).max())
        assert gap <= 0.10 * span, f"gap {gap:.4f} vs 10% of range {0.1 * span:.4f}"
        _report(8, f"mode agreement, max gap {gap / span:.1%} of range")


class TestCriterion9:
    def test_memory_engineering(self):
        """Dense byte formulas near the 465/119 MB reference figures; sparse ratio < 5%."""
        start = time.monotonic()
        data = hawkes_like_data(
            p=3, t_end=100.0, baseline=0.35, branching=0.3, seed=0
        )
        base = FitConfig(
            target="c0", inputs=["c0", "c1", "c2"], support=0.4,
            base_n=50_000, delta_n=400, mode="direct", q=100,
            family=log_link(), lam=0.1,
        )
        direct_ctx = build_context(data, base)
        h_sparse, h_dense = (
            direct_ctx.design.row_ptr.nbytes
            + direct_ctx.design.col_idx.nbytes
            + direct_ctx.design.values.nbytes,
            direct_ctx.design.nrows * direct_ctx.design.ncols * 8,
        )
        basis_ctx = build_context(data, replace(base, mode="basis"))
        z_sparse = (
            basis_ctx.design.row_ptr.nbytes
            + basis_ctx.design.col_idx.nbytes
            + basis_ctx.design.values.nbytes
        )
        z_dense = basis_ctx.design.nrows * basis_ctx.design.ncols * 8
        assert abs(h_dense - 465e6) <= 0.10 * 465e6, f"H dense {h_dense / 1e6:.0f} MB"
        assert abs(z_dense - 119e6) <= 0.10 * 119e6, f"Z dense {z_dense / 1e6:.0f} MB"
        assert h_sparse / h_dense < 0.05, f"H ratio {h_sparse / h_dense:.3f}"
        assert z_sparse / z_dense < 0.05, f"Z ratio {z_sparse / z_dense:.3f}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        _report(
            9,
            f"memory: H {h_dense / 1e6:.0f}/{h_sparse / 1e6:.2f} MB, "
            f"Z {z_dense / 1e6:.0f}/{z_sparse / 1e6:.2f} MB",
        )


class TestCriterion10:
    def test_cost_model_trends(self):
        """Linear-in-n timing, q-insensitive basis mode, N-sensitive direct mode."""
        start = time.monotonic()
        data = hawkes_like_data(t_end=200.0, baseline=1.4, branching=0.5, seed=0)
        slope_cells = [
            (mode, n, 200, 50)
            for mode in ("direct", "basis")
            for n in (5000, 10000, 20000, 40000)
        ]
        q_cells = [("basis", 40000, 400, 33), ("basis", 40000, 400, 100)]
        n_cells = [("direct", 40000, dn, 100) for dn in (100, 800, 1600)]
        rows = run_cells(data, slope_cells + q_cells + n_cells, reps=24)
        slope_rows, q_rows, n_rows = rows[:8], rows[8:10], rows[10:]
        # (a) log-log slope of nll time vs actual grid size within 1 +/- 0.3
        for mode in ("direct", "basis"):
            sel = [r for r in slope_rows if r.mode == mode]
            slope = np.polyfit(
                np.log([r.n for r in sel]), np.log([r.nll_ms for r in sel]), 1
            )[0]
            assert 0.7 <= slope <= 1.3, f"{mode} slope {slope:.2f}"
        # (b) basis-mode cost moves little when q goes 33 -> 100
        q33, q100 = q_rows
        q_change = abs(q100.nll_ms - q33.nll_ms) / q33.nll_ms
        assert q_change < 0.25, f"basis q change {q_change:.1%}"
        # (c) direct-mode cost strictly increases with the lag-grid size
        times = [r.nll_ms for r in n_rows]
        assert times[0] < times[1] < times[2], f"direct N trend {times}"
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        _report(10, f"cost trends (q change {q_change:.1%}; N trend {times})")


class TestCriterion11:
    def test_tic_sandwich_algebra(self):
        """lambda = 0 gives the classical inverse Fisher and full trace; monotone in lambda."""
        cfg = SimConfig(
            channels=["a", "b"],
            t_end=30.0,
            link=log_link(),
            baseline=0.0,
            filters={("a", "a"): ExpFilter(-10.0, -0.5), ("a", "b"): ExpFilter(-10.0, -0.7)},
            seed=21,
        )
        data = simulate_trials(cfg, 3)
        config = FitConfig(
            target="a", inputs=["a", "b"], support=0.3, base_n=600, delta_n=24,
            mode="direct", threshold=1e-4, family=log_link(), lam=0.2,
            optim=OptimSettings(max_iter=2000),
        )
        result = fit(data, config)
        assert result.converged
        k_hat = result.k_hat
        dim = k_hat.shape[0]
        sandwich_zero = sandwich_cov(k_hat, 0.0)
        inverse_fisher = np.linalg.inv(k_hat)
        rel = np.linalg.norm(sandwich_zero - inverse_fisher) / np.linalg.norm(inverse_fisher)
        assert rel <= 1e-8, f"sandwich vs inverse Fisher: rel {rel:.2e}"
        assert tic_trace_term(k_hat, 0.0) == pytest.approx(dim, abs=1e-8)
        lams = [0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0]
        traces = [tic_trace_term(k_hat, lam) for lam in lams]
        assert all(b <= a + 1e-10 for a, b in zip(traces, traces[1:])), traces
        _report(11, "TIC/sandwich algebra at lambda = 0 and monotone trace")
