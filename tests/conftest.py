import numpy as np
import pytest

from ppfilt.design import ModelMatrices, build_h, make_delta_grid
from ppfilt.events import EventData, Trial, make_time_grid
from ppfilt.kernels import Kernel, gram_matrix, spectral_factorize
from ppfilt.links import log_link
from ppfilt.objective import FilterSpec, ObjectiveContext
from ppfilt.splines import basis_gram, make_basis


@pytest.fixture
def t1_trial():
    """Tiny single-channel instance: events {0.3, 0.6} on [0, 1]."""
    return Trial(t_end=1.0, events={"a": np.array([0.3, 0.6])})


@pytest.fixture
def t1_grid(t1_trial):
    return make_time_grid(t1_trial, "a", base_n=10)


@pytest.fixture
def t1_delta():
    return make_delta_grid(0.5, 5)


@pytest.fixture
def t1_direct_spec(t1_delta):
    kernel = Kernel(family="sobolev2", support=0.5)
    factor = spectral_factorize(gram_matrix(kernel, t1_delta.bin_lags))
    return FilterSpec(mode="direct", n_channels=1, delta=t1_delta, kernel=kernel, factor=factor)


@pytest.fixture
def t1_basis_spec(t1_delta):
    basis = make_basis(0.5, 4)
    factor = basis_gram(basis, "second_derivative")
    return FilterSpec(
        mode="basis", n_channels=1, delta=t1_delta, basis=basis, basis_factor=factor
    )


def build_t1_context(trial, grid, spec, link=None, lam=0.0):
    matrices = ModelMatrices(grid=grid, h=build_h(trial, grid, spec.delta, ["a"]))
    return ObjectiveContext([matrices], link or log_link(), lam, spec)


@pytest.fixture
def t1_direct_ctx(t1_trial, t1_grid, t1_direct_spec):
    return build_t1_context(t1_trial, t1_grid, t1_direct_spec)


@pytest.fixture
def t1_basis_ctx(t1_trial, t1_grid, t1_basis_spec):
    return build_t1_context(t1_trial, t1_grid, t1_basis_spec)


def make_event_data(n_trials=2, t_end=10.0, channels=("a", "b"), seed=0):
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(n_trials):
        events = {}
        for ch in channels:
            k = rng.poisson(8)
            times = np.sort(rng.uniform(0.01, t_end - 0.01, size=k))
            times = np.unique(times)
            events[ch] = times
        trials.append(Trial(t_end=t_end, events=events))
    return EventData(trials, list(channels))
