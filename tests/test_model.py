"""End-to-end fitting, cross-validation and the TIC scan on small simulations."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from ppfilt.events import EventData
from ppfilt.links import LinkFunction, log_link
from ppfilt.model import (
    FitConfig,
    build_context,
    build_spec,
    build_trial_matrices,
    cross_validate,
    fit,
    model_scan,
)
from ppfilt.optimize import OptimSettings
from ppfilt.simulate import ExpFilter, SimConfig, simulate_trials


@pytest.fixture(scope="module")
def small_data():
    cfg = SimConfig(
        channels=["a", "b"],
        t_end=30.0,
        link=log_link(),
        baseline=0.0,
        filters={
            ("a", "a"): ExpFilter(-10.0, -0.5),
            ("a", "b"): ExpFilter(-10.0, -0.7),
        },
        seed=21,
    )
    return simulate_trials(cfg, 3)


@pytest.fixture(scope="module")
def small_config():
    return FitConfig(
        target="a",
        inputs=["a", "b"],
        support=0.3,
        base_n=400,
        delta_n=24,
        mode="direct",
        family=log_link(),
        lam=0.5,
        optim=OptimSettings(max_iter=300),
    )


class TestBuildSpec:
    def test_direct_spec_rank_from_threshold(self, small_config):
        spec = build_spec(small_config)
        assert spec.mode == "direct"
        assert 1 <= spec.q <= small_config.delta_n

    def test_direct_spec_rank_target(self, small_config):
        from dataclasses import replace

        spec = build_spec(replace(small_config, q=7))
        assert spec.q == 7

    def test_basis_spec(self, small_config):
        from dataclasses import replace

        spec = build_spec(replace(small_config, mode="basis", q=8))
        assert spec.q == 8
        assert spec.basis.support == pytest.approx(0.3)


class TestBuildContext:
    def test_coarse_lag_grid_warns_once_per_context(self, small_data, small_config, caplog):
        coarse = FitConfig(target="a", inputs=["a", "b"], support=0.3, base_n=400, delta_n=3)
        with caplog.at_level(logging.WARNING):
            build_context(small_data, coarse)
        warnings = [r for r in caplog.records if "lag grid too coarse" in r.getMessage()]
        assert len(warnings) == 1
        spec = build_spec(coarse)
        matrices = [
            build_trial_matrices(trial, coarse, spec, coarse.inputs, coarse.base_n)
            for trial in small_data.trials
        ]
        multi = sum(int(np.count_nonzero(m.h.values > 1.0)) for m in matrices)
        nnz = sum(m.h.nnz for m in matrices)
        assert small_data.n_trials > 1 and multi > 0
        assert f"{multi} of {nnz} lag counts" in warnings[0].getMessage()

    def test_fine_lag_grid_does_not_warn(self, small_data, caplog):
        fine = FitConfig(target="a", inputs=["a", "b"], support=0.3, base_n=400, delta_n=300)
        with caplog.at_level(logging.WARNING):
            build_context(small_data, fine)
        assert not [r for r in caplog.records if "lag grid too coarse" in r.getMessage()]


class TestFit:
    def test_baseline_only_recovers_empirical_rate(self, small_data):
        config = FitConfig(
            target="a", inputs=[], support=0.3, base_n=300, delta_n=10,
            mode="direct", family=log_link(), lam=0.0,
        )
        result = fit(small_data, config)
        assert result.converged
        rate = small_data.total_count("a") / small_data.total_time()
        assert np.exp(result.coef.beta0) == pytest.approx(rate, rel=1e-4)

    @pytest.mark.parametrize("mode,q", [("direct", None), ("basis", 8)])
    def test_fit_result_is_coherent(self, small_data, small_config, mode, q):
        from dataclasses import replace

        result = fit(small_data, replace(small_config, mode=mode, q=q))
        assert result.converged
        assert result.grad_norm <= 1e-6
        dim = 1 + 2 * result.extras["q"]
        assert result.k_hat.shape == (dim, dim)
        assert result.sandwich.shape == (dim, dim)
        assert result.penalized_nll >= result.nll  # ridge is nonnegative
        assert math.isfinite(result.tic)
        # TIC = nll + trace term, with the trace at most the dimension
        assert result.tic - result.nll <= dim + 1e-8

    def test_unknown_channel_rejected(self, small_data, small_config):
        from dataclasses import replace

        with pytest.raises(ValueError, match="unknown channels"):
            fit(small_data, replace(small_config, target="zzz"))


class TestCrossValidate:
    def test_identical_trials_give_equal_folds(self, small_data, small_config):
        trial = small_data.trials[0]
        doubled = EventData([trial, trial], small_data.channels)
        result = cross_validate(doubled, small_config)
        assert len(result.folds) == 2
        assert result.folds[0].val_nll == pytest.approx(result.folds[1].val_nll, rel=1e-10)

    def test_fold_shape_and_mean(self, small_data, small_config):
        result = cross_validate(small_data, small_config)
        assert len(result.folds) == 3
        good = [f.val_nll for f in result.folds if f.converged]
        assert result.mean_val_nll == pytest.approx(np.mean(good))

    def test_single_trial_error(self, small_data, small_config):
        single = EventData([small_data.trials[0]], small_data.channels)
        with pytest.raises(ValueError):
            cross_validate(single, small_config)

    def test_validation_uses_finest_grid(self, small_data, small_config):
        from dataclasses import replace

        coarse = cross_validate(small_data, small_config)
        fine = cross_validate(small_data, replace(small_config, eval_base_n=1200))
        # same fits, different validation discretization: close but not equal
        assert fine.mean_val_nll == pytest.approx(coarse.mean_val_nll, rel=0.05)
        assert fine.mean_val_nll != coarse.mean_val_nll


@pytest.fixture(scope="module")
def ff_data():
    """Feed-forward ground truth: fits with the same family are well specified."""

    def simulate(seed):
        cfg = SimConfig(
            channels=["drive", "resp"], t_end=30.0, link=log_link(),
            baseline={"drive": float(np.log(2.0)), "resp": 0.0},
            filters={("resp", "drive"): ExpFilter(-10.0, 0.5)},
            seed=seed,
        )
        return simulate_trials(cfg, 5)

    return simulate


class TestCvQuality:
    def test_validation_close_to_training_for_well_specified_model(self, ff_data):
        data = ff_data(31)
        config = FitConfig(
            target="resp", inputs=["drive"], support=0.4, base_n=600, delta_n=32,
            mode="direct", family=log_link(), lam=0.1,
        )
        result = cross_validate(data, config)
        per_trial_train = np.mean([f.train_nll / 4.0 for f in result.folds])
        assert math.isfinite(result.mean_val_nll)
        assert result.mean_val_nll == pytest.approx(per_trial_train, rel=0.10)

    def test_correct_support_beats_truncated_support(self, ff_data):
        # lag 0.05 cuts off 61% of the true filter mass; the full support must
        # validate better, as a tendency over seeds and in aggregate
        config = FitConfig(
            target="resp", inputs=["drive"], support=0.4, base_n=600, delta_n=32,
            mode="direct", family=log_link(), lam=0.1,
        )
        from dataclasses import replace

        wins, good_total, short_total = 0, 0.0, 0.0
        for seed in (31, 32, 33):
            data = ff_data(seed)
            good = cross_validate(data, config).mean_val_nll
            short = cross_validate(data, replace(config, support=0.05)).mean_val_nll
            wins += int(good < short)
            good_total += good
            short_total += short
        assert wins >= 2
        assert good_total < short_total

    def test_exp_data_prefers_log_link_in_scan(self, ff_data):
        # data generated with the exponential transform: the scan should put
        # the best TIC at c = inf (the log family) for most seeds
        config = FitConfig(
            target="resp", inputs=["drive"], support=0.4, base_n=600, delta_n=32,
            mode="direct", family=log_link(), lam=0.1,
        )
        prefer_log = 0
        for seed in (31, 32, 33):
            result = model_scan(ff_data(seed), config, c_grid=[0.0, math.inf], lam_grid=[0.1])
            prefer_log += int(math.isinf(result.best.c))
        assert prefer_log >= 2


class TestModelScan:
    def test_single_cell(self, small_data, small_config):
        result = model_scan(small_data, small_config, c_grid=[0.5], lam_grid=[0.5])
        assert len(result.cells) == 1
        assert result.best is result.cells[0]

    def test_deterministic_table(self, small_data, small_config):
        first = model_scan(small_data, small_config, c_grid=[0.0, math.inf], lam_grid=[0.5])
        second = model_scan(small_data, small_config, c_grid=[0.0, math.inf], lam_grid=[0.5])
        for a, b in zip(first.cells, second.cells):
            assert a.tic == b.tic
            assert a.nll == b.nll

    def test_tie_breaks_toward_larger_lambda(self, small_data, small_config):
        # duplicate lambda values produce identical TIC; the larger one wins
        result = model_scan(small_data, small_config, c_grid=[0.5], lam_grid=[0.5, 0.5])
        assert result.best.lam == 0.5
        assert result.cells[0].tic == result.cells[1].tic

    def test_infinite_c_means_log_family(self, small_data, small_config):
        result = model_scan(small_data, small_config, c_grid=[math.inf], lam_grid=[0.5])
        direct = fit(small_data, small_config)  # small_config uses the log family
        assert result.cells[0].tic == pytest.approx(direct.tic, rel=1e-9)

    def test_warm_started_cells_equal_cold_fits(self, small_data, small_config):
        c_grid, lam_grid = [0.0, 1.0, math.inf], [0.01, 0.1, 1.0]
        result = model_scan(small_data, small_config, c_grid=c_grid, lam_grid=lam_grid)
        cold = []
        for cell in result.cells:
            family = log_link() if math.isinf(cell.c) else LinkFunction("logaffine", c=cell.c)
            cold.append(fit(small_data, replace(small_config, family=family, lam=cell.lam)))
        for cell, ref in zip(result.cells, cold):
            assert cell.nll == pytest.approx(ref.nll, rel=1e-9)
            assert cell.converged == ref.converged
        best_cell, _ = min(
            (pair for pair in zip(result.cells, cold) if pair[1].converged),
            key=lambda pair: (pair[1].tic, -pair[1].lam),
        )
        assert result.best is best_cell

    def test_empty_grid_rejected(self, small_data, small_config):
        with pytest.raises(ValueError):
            model_scan(small_data, small_config, c_grid=[], lam_grid=[0.1])
