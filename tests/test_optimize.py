"""Damped Newton behavior on standard test functions and on the likelihood itself."""

import math

import numpy as np
import pytest

from ppfilt.events import Trial, make_time_grid, split_replications
from ppfilt.links import identity_link, log_link, parse_family
from ppfilt.model import FitConfig, build_context
from ppfilt.objective import Coefficients
from ppfilt.simulate import ExpFilter, SimConfig, simulate_trials
from ppfilt.optimize import (
    OptimSettings,
    _newton_direction,
    initial_point,
    minimize,
    newton_minimize,
)

from conftest import build_t1_context


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
            2 * b * (x[1] - x[0] ** 2),
        ]
    )
    return float(f), g


def rosenbrock_hessian(x):
    b = 100.0
    return np.array(
        [
            [2 - 4 * b * (x[1] - 3 * x[0] ** 2), -4 * b * x[0]],
            [-4 * b * x[0], 2 * b],
        ]
    )


class TestNewtonCore:
    def test_quadratic_exact(self):
        a = np.array([1.0, -2.0, 3.0, 0.5])

        def fun(x):
            d = x - a
            return 0.5 * float(d @ d), d

        x, f, g, iters, stop, trace = newton_minimize(fun, lambda x: np.eye(4), np.zeros(4))
        assert stop == "gradient_tolerance"
        assert iters == 1
        assert f <= 1e-12
        np.testing.assert_allclose(x, a, atol=1e-12)

    def test_rosenbrock(self):
        x, f, g, iters, stop, trace = newton_minimize(
            rosenbrock, rosenbrock_hessian, np.array([-1.2, 1.0]), OptimSettings(max_iter=200)
        )
        assert stop == "gradient_tolerance"
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)
        # the minimizer really is a stationary point of the test function
        assert np.abs(rosenbrock(x)[1]).max() <= 1e-6

    def test_rosenbrock_from_indefinite_hessian(self):
        # at (0, 1) the Hessian is diag(-398, 200): no Cholesky factor, so the
        # identity shift must make the first direction a descent direction
        x0 = np.array([0.0, 1.0])
        hess = rosenbrock_hessian(x0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(hess)
        g = rosenbrock(x0)[1]
        assert float(g @ _newton_direction(hess, g)) < 0
        x, f, g, iters, stop, trace = newton_minimize(
            rosenbrock, rosenbrock_hessian, x0, OptimSettings(max_iter=200)
        )
        assert stop == "gradient_tolerance"
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)

    def test_monotone_trace(self):
        def fun(x):
            f = float(np.sum(x**4) + np.sum((x - 1) ** 2))
            g = 4 * x**3 + 2 * (x - 1)
            return f, g

        def hess(x):
            return np.diag(12 * x**2 + 2)

        _, _, _, _, stop, trace = newton_minimize(fun, hess, np.full(3, 5.0))
        assert stop == "gradient_tolerance"
        values = [v for v, _ in trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_backtracks_through_infinite_region(self):
        # f = -log(1 - ||x||^2): finite only inside the unit ball
        def fun(x):
            r2 = float(x @ x)
            if r2 >= 1.0:
                return np.inf, np.full_like(x, np.nan)
            return -np.log1p(-r2), 2 * x / (1 - r2)

        def hess(x):
            r2 = float(x @ x)
            return 2 * np.eye(len(x)) / (1 - r2) + 4 * np.outer(x, x) / (1 - r2) ** 2

        x, f, g, iters, stop, _ = newton_minimize(fun, hess, np.array([0.7, 0.0]))
        assert stop == "gradient_tolerance"
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-6)

    def test_stops_at_max_iter(self):
        x0 = np.array([-1.2, 1.0])
        x, f, g, iters, stop, trace = newton_minimize(
            rosenbrock, rosenbrock_hessian, x0, OptimSettings(max_iter=2)
        )
        assert (stop, iters, len(trace)) == ("max_iter", 2, 3)
        assert np.abs(g).max() > 1e-6
        # no step at all: the start is returned as it is
        x, f, g, iters, stop, trace = newton_minimize(
            rosenbrock, rosenbrock_hessian, x0, OptimSettings(max_iter=0)
        )
        assert (stop, iters) == ("max_iter", 0)
        np.testing.assert_array_equal(x, x0)

    def test_stops_when_no_step_is_acceptable(self):
        # finite only at the start, so every trial step along the direction fails
        def fun(x):
            if np.any(x != 0.0):
                return np.inf, np.full_like(x, np.nan)
            return 0.0, np.ones_like(x)

        x, f, g, iters, stop, trace = newton_minimize(fun, lambda x: np.eye(2), np.zeros(2))
        assert (stop, iters, f) == ("no_acceptable_step", 0, 0.0)
        np.testing.assert_array_equal(x, 0.0)

    def test_gradient_tolerance_wins_at_the_iteration_limit(self):
        # converged at the start: no iteration is needed, whatever max_iter is
        def fun(x):
            return float(x @ x), 2 * x

        for max_iter in (0, 5):
            _, _, _, iters, stop, _ = newton_minimize(
                fun, lambda x: 2 * np.eye(2), np.zeros(2), OptimSettings(max_iter=max_iter)
            )
            assert (stop, iters) == ("gradient_tolerance", 0)

    def test_infinite_start_rejected(self):
        def fun(x):
            return np.inf, np.full_like(x, np.nan)

        with pytest.raises(ValueError, match="initial point"):
            newton_minimize(fun, lambda x: np.eye(2), np.zeros(2))


class TestInitialPoint:
    def test_log_rate_one(self, t1_direct_spec):
        trial = Trial(t_end=10.0, events={"a": np.linspace(0.5, 9.5, 10)})
        grid = make_time_grid(trial, "a", base_n=20)
        ctx = build_t1_context(trial, grid, t1_direct_spec)
        coef = initial_point(ctx)
        assert coef.beta0 == pytest.approx(0.0)  # log(10 events / 10 s)
        assert np.all(coef.beta == 0.0)

    def test_identity_rate(self, t1_direct_spec):
        trial = Trial(t_end=5.0, events={"a": np.linspace(0.25, 4.75, 10)})
        grid = make_time_grid(trial, "a", base_n=20)
        ctx = build_t1_context(trial, grid, t1_direct_spec, link=identity_link())
        assert initial_point(ctx).beta0 == pytest.approx(2.0)

    def test_zero_events_floor(self, t1_direct_spec):
        trial = Trial(t_end=1.0, events={"a": []})
        grid = make_time_grid(trial, "a", base_n=10)
        ctx = build_t1_context(trial, grid, t1_direct_spec)
        assert initial_point(ctx).beta0 == pytest.approx(np.log(1e-6))


class TestMinimizeOnLikelihood:
    @pytest.mark.parametrize("mode", ["direct", "basis"])
    def test_penalized_fit_converges(
        self, mode, t1_trial, t1_grid, t1_direct_spec, t1_basis_spec
    ):
        spec = t1_direct_spec if mode == "direct" else t1_basis_spec
        ctx = build_t1_context(t1_trial, t1_grid, spec, link=log_link(), lam=0.5)
        result = minimize(ctx, OptimSettings())
        assert result.converged and result.stop_reason == "gradient_tolerance"
        assert result.grad_norm <= 1e-6
        assert np.isfinite(result.nll_value)
        values = [v for v, _ in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_stationary_point_solves_estimating_equation(self, t1_direct_ctx):
        from ppfilt.objective import penalized_value_and_grad

        ctx = t1_direct_ctx
        result = minimize(ctx)
        _, grad = penalized_value_and_grad(ctx, result.coef.pack())
        assert np.abs(grad).max() <= 1e-6

    def test_float_flat_cv_fold_converges(self):
        # the benchmark's cv-direct data for seed 1 (`ppfilt simulate --seed 1000
        # --trials 5 --horizon 100 --channels 3 --family identity --baseline 1.4
        # --alpha -10 --beta log(5) --coupling self`), trial 1 held out.  Near its
        # optimum the value is flat to float precision while the gradient is
        # still above grad_tol, so a search that needs a measurable decrease stalls
        channels = ["c0", "c1", "c2"]
        sim = SimConfig(
            channels=channels, t_end=100.0, link=parse_family("identity"), baseline=1.4,
            filters={(c, c): ExpFilter(alpha=-10.0, beta=math.log(5.0)) for c in channels},
            seed=1000,
        )
        train, _ = split_replications(simulate_trials(sim, 5), 1)
        config = FitConfig(target="c0", base_n=10000, delta_n=200, family=log_link(), lam=0.1)
        result = minimize(build_context(train, config))
        assert result.converged
        assert result.grad_norm <= 1e-6
        assert result.iterations <= 8
