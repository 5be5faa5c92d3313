"""End-to-end fitting: configuration, cross-validation and the (c, lambda) scan."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import inference
from .design import (
    ModelMatrices,
    build_h,
    build_z,
    build_z_direct,
    make_delta_grid,
    multi_hit_count,
)
from .events import EventData, Trial, make_time_grid, split_replications
from .kernels import (
    DEFAULT_SPECTRAL_THRESHOLD,
    Kernel,
    gram_matrix,
    spectral_factorize,
    threshold_for_rank,
)
from .links import LinkFunction, log_link
from .objective import Coefficients, FilterSpec, ObjectiveContext, nll
from .optimize import OptimSettings, minimize
from .splines import basis_eval_matrix, basis_gram, make_basis

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitConfig:
    """Everything needed to go from event data to a fitted filter model."""

    target: str
    inputs: list[str] | None = None
    support: float = 0.4
    base_n: int = 2000
    delta_n: int = 100
    mode: str = "direct"
    family: LinkFunction = field(default_factory=log_link)
    lam: float = 0.1
    q: int | None = None
    threshold: float = DEFAULT_SPECTRAL_THRESHOLD
    kernel_family: str = "sobolev2"
    kernel_bandwidth: float | None = None
    inner_product: str = "second_derivative"
    use_direct_z: bool = False
    eval_base_n: int | None = None
    optim: OptimSettings = field(default_factory=OptimSettings)

    def resolve_inputs(self, data: EventData) -> list[str]:
        inputs = list(data.channels) if self.inputs is None else list(self.inputs)
        missing = [ch for ch in inputs + [self.target] if ch not in data.channels]
        if missing:
            raise ValueError(f"unknown channels {missing}")
        return inputs


def build_spec(config: FitConfig) -> FilterSpec:
    delta = make_delta_grid(config.support, config.delta_n)
    n_inputs = 0 if config.inputs is None else len(config.inputs)
    if config.mode == "direct":
        kernel = Kernel(
            family=config.kernel_family,
            support=config.support,
            bandwidth=config.kernel_bandwidth,
        )
        gram = gram_matrix(kernel, delta.bin_lags)
        threshold = config.threshold
        if config.q is not None:
            threshold = threshold_for_rank(gram, config.q)
        factor = spectral_factorize(gram, threshold)
        return FilterSpec(
            mode="direct", n_channels=n_inputs, delta=delta, kernel=kernel, factor=factor
        )
    if config.mode == "basis":
        q = config.q if config.q is not None else 33
        basis = make_basis(config.support, q)
        factor = basis_gram(basis, config.inner_product)
        return FilterSpec(
            mode="basis", n_channels=n_inputs, delta=delta, basis=basis, basis_factor=factor
        )
    raise ValueError(f"unknown mode {config.mode!r}")


def _spec_for(config: FitConfig, inputs: list[str]) -> FilterSpec:
    return build_spec(replace(config, inputs=inputs))


def build_trial_matrices(
    trial: Trial, config: FitConfig, spec: FilterSpec, inputs: list[str], base_n: int
) -> ModelMatrices:
    grid = make_time_grid(trial, config.target, base_n)
    h = build_h(trial, grid, spec.delta, inputs)
    z = None
    if spec.mode == "basis":
        if config.use_direct_z:
            z = build_z_direct(trial, grid, spec.basis, inputs)
        else:
            b_eval = basis_eval_matrix(spec.basis, spec.delta.bin_lags)
            z = build_z(h, b_eval, len(inputs))
    return ModelMatrices(grid=grid, delta=spec.delta, n_channels=len(inputs), h=h, z=z)


def build_context(
    data: EventData, config: FitConfig, spec: FilterSpec | None = None, base_n: int | None = None
) -> ObjectiveContext:
    inputs = config.resolve_inputs(data)
    if spec is None:
        spec = _spec_for(config, inputs)
    matrices = [
        build_trial_matrices(trial, config, spec, inputs, base_n or config.base_n)
        for trial in data.trials
    ]
    multi = sum(multi_hit_count(m.h) for m in matrices)
    if multi:
        nnz = sum(m.h.nnz for m in matrices)
        log.warning(
            "lag grid too coarse: %d of %d lag counts exceed 1 (%.3g%%; intended to be 0/1 only)",
            multi, nnz, 100.0 * multi / nnz,
        )
    return ObjectiveContext(matrices, config.family, config.lam, spec)


def fit(
    data: EventData, config: FitConfig, start: Coefficients | None = None
) -> inference.FitResult:
    """Build design matrices, minimize the penalized objective from start, attach inference."""
    inputs = config.resolve_inputs(data)
    spec = _spec_for(config, inputs)
    ctx = build_context(data, config, spec=spec)
    result = minimize(ctx, config.optim, start)
    raw_nll = nll(ctx, result.coef)
    k_hat = inference.fisher_hat(ctx, result.coef)
    j_hat = inference.j_hat_matrix(k_hat, config.lam)
    sandwich = inference.sandwich_cov(k_hat, config.lam)
    tic_value = inference.tic(raw_nll, k_hat, config.lam)
    return inference.FitResult(
        coef=result.coef,
        nll=raw_nll,
        penalized_nll=result.nll_value,
        k_hat=k_hat,
        j_hat=j_hat,
        sandwich=sandwich,
        tic=tic_value,
        lam=config.lam,
        link=config.family.describe(),
        mode=config.mode,
        converged=result.converged,
        iterations=result.iterations,
        grad_norm=result.grad_norm,
        extras={
            "target": config.target,
            "inputs": inputs,
            "support": config.support,
            "base_n": config.base_n,
            "delta_n": config.delta_n,
            "q": spec.q,
            "spec": spec,
        },
    )


@dataclass(eq=False)
class CvFold:
    holdout: int
    val_nll: float
    converged: bool
    train_nll: float


@dataclass(eq=False)
class CvResult:
    folds: list[CvFold]
    mean_val_nll: float


def cross_validate(data: EventData, config: FitConfig) -> CvResult:
    """Hold out each trial in turn; validate on the finest configured grid.

    Folds that fail to converge are flagged and excluded from the mean.
    """
    if data.n_trials < 2:
        raise ValueError("cross-validation needs at least 2 trials")
    inputs = config.resolve_inputs(data)
    spec = _spec_for(config, inputs)
    eval_n = config.eval_base_n or config.base_n
    folds = []
    for holdout in range(data.n_trials):
        train, test = split_replications(data, holdout)
        ctx = build_context(train, config, spec=spec)
        result = minimize(ctx, config.optim)
        val_ctx = build_context(test, config, spec=spec, base_n=eval_n)
        val = nll(val_ctx, result.coef)
        folds.append(
            CvFold(
                holdout=holdout,
                val_nll=float(val),
                converged=result.converged,
                train_nll=float(nll(ctx, result.coef)),
            )
        )
    good = [f.val_nll for f in folds if f.converged and math.isfinite(f.val_nll)]
    mean = float(np.mean(good)) if good else math.inf
    return CvResult(folds=folds, mean_val_nll=mean)


@dataclass(eq=False)
class ScanCell:
    c: float
    lam: float
    nll: float
    trace_term: float
    tic: float
    converged: bool
    error: str | None = None


@dataclass(eq=False)
class ScanResult:
    cells: list[ScanCell]
    best: ScanCell


def model_scan(
    data: EventData,
    config: FitConfig,
    c_grid: list[float],
    lam_grid: list[float],
) -> ScanResult:
    """TIC over the (c, lambda) grid for the logaffine family (c = inf means log).

    Along lambda, each cell starts from the previous cell's coefficients when
    that cell converged.  The argmin runs over converged cells; TIC ties break
    toward larger lambda.
    """
    if not c_grid or not lam_grid:
        raise ValueError("scan grids must be nonempty")
    cells = []
    for c in c_grid:
        family = log_link() if math.isinf(c) else LinkFunction("logaffine", c=float(c))
        start = None
        for lam in lam_grid:
            cell_config = replace(config, family=family, lam=float(lam))
            try:
                result = fit(data, cell_config, start)
                start = result.coef if result.converged else None
                cells.append(
                    ScanCell(
                        c=float(c),
                        lam=float(lam),
                        nll=result.nll,
                        trace_term=result.tic - result.nll,
                        tic=result.tic,
                        converged=result.converged,
                    )
                )
            except (np.linalg.LinAlgError, ValueError, ZeroDivisionError) as exc:
                start = None
                cells.append(
                    ScanCell(
                        c=float(c), lam=float(lam), nll=math.inf, trace_term=math.inf,
                        tic=math.inf, converged=False, error=str(exc),
                    )
                )
    usable = [cell for cell in cells if cell.converged and math.isfinite(cell.tic)]
    if not usable:
        raise RuntimeError("all scan fits failed")
    best = min(usable, key=lambda cell: (cell.tic, -cell.lam))
    return ScanResult(cells=cells, best=best)
