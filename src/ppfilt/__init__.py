"""Penalized likelihood estimation of linear filters for multivariate point processes.

The package fits nonparametric filter functions driving a conditional
intensity phi(beta0 + sum_i integral g_i(t - s) dN^i_s) by discretizing the
likelihood on a time grid and reparametrizing the filters isometrically,
either through a reproducing-kernel Gram factor or a cubic B-spline basis.
"""

from .design import DeltaGrid, ModelMatrices, build_h, build_z, make_delta_grid
from .events import (
    EventData,
    TimeGrid,
    Trial,
    load_events,
    make_time_grid,
    save_events,
    split_replications,
)
from .inference import FilterBand, FitResult, filter_bands, fisher_hat, sandwich_cov, tic
from .kernels import Kernel, gram_matrix, kernel_eval, spectral_factorize
from .links import LinkFunction, identity_link, log_link, logaffine_link, parse_family, root_link
from .model import FitConfig, build_context, cross_validate, fit, model_scan
from .objective import (
    Coefficients,
    FilterSpec,
    ObjectiveContext,
    gradient,
    linear_predictor,
    nll,
    penalized_nll,
    reconstruct_filter,
)
from .optimize import OptimResult, OptimSettings, initial_point, minimize, newton_minimize
from .simulate import (
    ExpFilter,
    ExplosionError,
    SimConfig,
    TabulatedFilter,
    exp_hawkes_intensity,
    simulate_trials,
    thinning_simulate,
)
from .sparse import SparseCsr, memory_footprint, spmv, spmv_t
from .splines import SplineBasis, basis_eval_matrix, basis_gram, make_basis

__version__ = "0.1.0"
