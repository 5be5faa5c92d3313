"""Memory/time scaling study for the two model-matrix layouts.

One dataset is simulated per seed and reused across all grid resolutions so
timings isolate the evaluation cost, not the data.  Because wall-clock noise
on shared machines drifts on a seconds scale, all configurations are timed
interleaved: each repetition takes one calibrated loop sample from every
configuration in turn, and a configuration's figure is the median of its
samples.  BLAS pools are pinned to one thread during timing with only
numpy and scipy installed: through threadpoolctl when it is present, else
through the C API of the OpenBLAS copies that the numpy and scipy wheels
bundle.  When no pool can be pinned, one warning says the timings are not
single-threaded.  Every row records the thread count read back while it was
timed (``blas_threads``), so an unpinned table can be told from a pinned one.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .events import EventData
from .links import identity_link, log_link
from .model import FitConfig, build_context
from .objective import Coefficients, gradient, nll
from .optimize import initial_point
from .simulate import ExpFilter, SimConfig, simulate_trials
from .sparse import memory_footprint

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BenchRow:
    mode: str
    n: int
    delta_n: int
    q: int
    p: int
    nnz: int
    sparse_bytes: int
    dense_bytes: int
    nll_ms: float
    grad_ms: float
    blas_threads: int  # largest BLAS thread count read back while timing; 0 if none was found


def hawkes_like_data(
    p: int = 3,
    t_end: float = 200.0,
    baseline: float = 1.4,
    branching: float = 0.5,
    decay: float = 10.0,
    seed: int = 0,
) -> EventData:
    """Self-exciting identity-link streams; branching < 1 keeps them stable.

    The defaults give a stationary rate near 2.8 Hz per channel, the density
    regime of multichannel spike recordings.
    """
    channels = [f"c{i}" for i in range(p)]
    filters = {
        (ch, ch): ExpFilter(-decay, float(np.log(branching * decay))) for ch in channels
    }
    cfg = SimConfig(
        channels=channels,
        t_end=t_end,
        link=identity_link(),
        baseline=baseline,
        filters=filters,
        seed=seed,
    )
    return simulate_trials(cfg, 1)


# (setter, getter) pairs of the OpenBLAS builds bundled by numpy and scipy
# wheels, newest naming first: numpy's ILP64 copy carries a "64_" suffix.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@dataclass(frozen=True)
class _OpenBlasPool:
    """One bundled OpenBLAS library and its thread-count accessors."""

    path: Path
    get: Callable[[], int]
    set: Callable[[int], None]


def _bundled_openblas() -> list[_OpenBlasPool]:
    """The OpenBLAS copies shipped inside the numpy and scipy wheels."""
    pools = []
    for package in (np, scipy):
        pkg_dir = Path(package.__file__).parent
        lib_dirs = (pkg_dir.parent / f"{pkg_dir.name}.libs", pkg_dir / ".dylibs")
        for path in sorted(p for d in lib_dirs if d.is_dir() for p in d.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for setter, getter in _OPENBLAS_SYMBOLS:
                if hasattr(lib, setter) and hasattr(lib, getter):
                    set_fn, get_fn = getattr(lib, setter), getattr(lib, getter)
                    set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                    get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                    pools.append(_OpenBlasPool(path, get_fn, set_fn))
                    break
    return pools


def _pin_with_threadpoolctl(stack: contextlib.ExitStack) -> list[int] | None:
    """Thread counts of the BLAS pools after pinning; None without threadpoolctl."""
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        return None
    stack.enter_context(threadpool_limits(limits=1))
    return [info["num_threads"] for info in threadpool_info() if info["user_api"] == "blas"]


def _pin_bundled_openblas(stack: contextlib.ExitStack) -> list[int]:
    """Set each bundled OpenBLAS to one thread; the stack restores the old counts."""
    counts = []
    for pool in _bundled_openblas():
        stack.callback(pool.set, pool.get())
        pool.set(1)
        counts.append(pool.get())
    return counts


@contextlib.contextmanager
def _single_thread_pools():
    """Pin every BLAS pool to one thread for the block, restoring it on exit.

    Yields the thread counts read back from the pools after pinning.  If no
    pool is found, or a pool does not read back one thread, the block still
    runs and one warning says the timings are not single-threaded.
    """
    with contextlib.ExitStack() as stack:
        counts = _pin_with_threadpoolctl(stack)
        if counts is None:
            counts = _pin_bundled_openblas(stack)
        if not counts or any(c != 1 for c in counts):
            log.warning(
                "BLAS pools not pinned to one thread (thread counts %s); "
                "timings are not single-threaded",
                counts,
            )
        yield counts


class _TimedTarget:
    """One benchmark cell: a prepared context and calibrated call loops."""

    def __init__(self, data: EventData, mode: str, base_n: int, delta_n: int, q: int,
                 support: float) -> None:
        config = FitConfig(
            target=data.channels[0],
            inputs=list(data.channels),
            support=support,
            base_n=base_n,
            delta_n=delta_n,
            mode=mode,
            q=q,
            family=log_link(),
            lam=0.1,
        )
        self.mode = mode
        self.delta_n = delta_n
        self.p = len(data.channels)
        self.ctx = build_context(data, config)
        rng = np.random.default_rng(1)
        start = initial_point(self.ctx)
        self.coef = Coefficients(
            beta0=start.beta0, beta=0.01 * rng.normal(size=start.beta.shape)
        )
        self.nll_inner = 1
        self.grad_inner = 1
        self.nll_samples: list[float] = []
        self.grad_samples: list[float] = []

    def calibrate(self, min_loop_s: float) -> None:
        self.nll_inner = _calibrate(lambda: nll(self.ctx, self.coef), min_loop_s)
        self.grad_inner = _calibrate(lambda: gradient(self.ctx, self.coef), min_loop_s)

    def sample(self) -> None:
        self.nll_samples.append(_loop_seconds(lambda: nll(self.ctx, self.coef), self.nll_inner))
        self.grad_samples.append(
            _loop_seconds(lambda: gradient(self.ctx, self.coef), self.grad_inner)
        )

    def row(self, blas_threads: int) -> BenchRow:
        sparse_bytes, dense_bytes = memory_footprint(self.ctx.design)
        return BenchRow(
            mode=self.mode,
            n=self.ctx.n_rows - 1,
            delta_n=self.delta_n,
            q=self.ctx.spec.q,
            p=self.p,
            nnz=self.ctx.design.nnz,
            sparse_bytes=sparse_bytes,
            dense_bytes=dense_bytes,
            nll_ms=float(np.median(self.nll_samples) * 1e3),
            grad_ms=float(np.median(self.grad_samples) * 1e3),
            blas_threads=blas_threads,
        )


def _loop_seconds(fun, inner: int) -> float:
    start = time.perf_counter()
    for _ in range(inner):
        fun()
    return (time.perf_counter() - start) / inner


def _calibrate(fun, min_loop_s: float) -> int:
    fun()  # warm caches and lazy allocations
    inner = 1
    while inner < 65536:
        start = time.perf_counter()
        for _ in range(inner):
            fun()
        if time.perf_counter() - start >= min_loop_s:
            break
        inner *= 2
    return inner


def run_cells(
    data: EventData,
    cells: list[tuple[str, int, int, int]],
    support: float = 0.4,
    reps: int = 20,
    min_loop_s: float = 8e-3,
) -> list[BenchRow]:
    """Time (mode, base_n, delta_n, q) cells with interleaved repetitions."""
    targets = [
        _TimedTarget(data, mode, base_n, delta_n, q, support)
        for mode, base_n, delta_n, q in cells
    ]
    with _single_thread_pools() as counts:
        for target in targets:
            target.calibrate(min_loop_s)
        for _ in range(reps):
            for target in targets:
                target.sample()
    return [t.row(max(counts, default=0)) for t in targets]


def run_bench(
    modes: list[str],
    n_grid: list[int],
    delta_n_grid: list[int],
    q_grid: list[int],
    p: int = 3,
    support: float = 0.4,
    reps: int = 20,
    seed: int = 0,
    data: EventData | None = None,
) -> list[BenchRow]:
    if data is None:
        data = hawkes_like_data(p=p, seed=seed)
    cells = [
        (mode, base_n, delta_n, min(q, delta_n))
        for mode in modes
        for base_n in n_grid
        for delta_n in delta_n_grid
        for q in q_grid
    ]
    return run_cells(data, cells, support=support, reps=reps)


def rows_to_csv(rows: list[BenchRow]) -> str:
    header = "mode,n,N,q,p,nnz,sparse_bytes,dense_bytes,nll_ms,grad_ms,blas_threads"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.mode},{r.n},{r.delta_n},{r.q},{r.p},{r.nnz},"
            f"{r.sparse_bytes},{r.dense_bytes},{r.nll_ms:.6f},{r.grad_ms:.6f},{r.blas_threads}"
        )
    return "\n".join(lines) + "\n"
