"""Output checks computed apart from the program.

Nothing here imports ppfilt.  Events are read from the JSON file that
`ppfilt simulate` wrote; the time grid, the lag bins and the discretized
likelihood are rebuilt from the definitions in the package's documentation:

    grid    uniform (n + 1)-point grid on [0, T] united with the target events;
            an event within 1e-12 of an interior uniform point replaces it
    bins    lag t_l - sigma in (0, A], bin k = [delta_k, delta_{k+1}) with
            delta = linspace(0, A, N + 1), a lag of exactly A in the last bin
    nll     sum_{l >= 1} phi(xi_l) (t_l - t_{l-1}) - sum_{jumps} log phi(xi_l)

Each check returns a list of problems; a problem is (fit index, message),
with index None when it concerns every fit of the command.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

MERGE_TOL = 1e-12
# Relative rounding of a value written with "%.12g" (filters_<ch>.csv).
CSV_REL = 5e-12
# Relative float error allowed in a recomputed sum, against the sum of the
# magnitudes of its terms.
SUM_REL = 1e-12

Problem = tuple  # (int | None, str)


# -- readers ------------------------------------------------------------------


def read_events(path: Path) -> list[dict]:
    """Trials as [{"t_end": float, "events": {channel: sorted array}}]."""
    payload = json.loads(Path(path).read_text())
    return [
        {
            "t_end": float(trial["t_end"]),
            "events": {ch: np.asarray(ts, dtype=np.float64) for ch, ts in trial["events"].items()},
        }
        for trial in payload["trials"]
    ]


def read_table(path: Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_fit(out_dir: Path, channels: list[str]) -> dict:
    """fit.json plus each filters_<ch>.csv as arrays."""
    out_dir = Path(out_dir)
    fit = json.loads((out_dir / "fit.json").read_text())
    bands = {}
    for ch in channels:
        rows = read_table(out_dir / f"filters_{ch}.csv")
        bands[ch] = {key: np.array([float(r[key]) for r in rows]) for key in ("lag", "estimate", "lower", "upper")}
    return {"fit": fit, "bands": bands}


# -- generated events -----------------------------------------------------------


def check_events(trials: list[dict], channels: list[str], t_end: float, baseline: float,
                 branching: float, sds: float = 6.0) -> list[Problem]:
    """Times strictly increase inside (0, T); counts near the stationary mean.

    For a linear Hawkes process with baseline mu and branching ratio b the
    stationary count over T has mean mu T / (1 - b) and, for T much longer
    than the filter's memory, variance mu T / (1 - b)^3.  A count more than
    `sds` standard deviations from the mean fails.
    """
    problems = []
    mean = baseline * t_end / (1.0 - branching)
    bound = sds * math.sqrt(baseline * t_end / (1.0 - branching) ** 3)
    for k, trial in enumerate(trials):
        if trial["t_end"] != t_end:
            problems.append((None, f"trial {k}: t_end {trial['t_end']} != {t_end}"))
        if sorted(trial["events"]) != sorted(channels):
            problems.append((None, f"trial {k}: channels {sorted(trial['events'])} != {channels}"))
            continue
        for ch in channels:
            ts = trial["events"][ch]
            if len(ts) and (ts[0] <= 0.0 or ts[-1] >= t_end):
                problems.append((None, f"trial {k} {ch}: event outside (0, {t_end})"))
            if np.any(np.diff(ts) <= 0.0):
                problems.append((None, f"trial {k} {ch}: times not strictly increasing"))
            if abs(len(ts) - mean) > bound:
                problems.append((None, f"trial {k} {ch}: {len(ts)} events, expected {mean:.0f} +- {bound:.0f}"))
    return problems


# -- the discretized likelihood, rebuilt ----------------------------------------


def time_grid(t_end: float, base_n: int, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(grid points, indices of the target events among them)."""
    uniform = np.linspace(0.0, t_end, base_n + 1)
    drop = np.zeros(len(uniform), dtype=bool)
    pos = np.searchsorted(uniform, taus)
    for cand in (pos - 1, pos):
        inner = (cand >= 1) & (cand <= base_n - 1)
        idx = cand[inner]
        drop[idx[np.abs(uniform[idx] - taus[inner]) <= MERGE_TOL]] = True
    kept = uniform[~drop]
    points = np.concatenate([kept, taus])
    is_jump = np.concatenate([np.zeros(len(kept), dtype=bool), np.ones(len(taus), dtype=bool)])
    order = np.argsort(points, kind="stable")
    return points[order], np.flatnonzero(is_jump[order])


def lag_bins(points: np.ndarray, sigmas: np.ndarray, support: float, n_bins: int):
    """(grid rows, lag bins) of every pair with lag t_l - sigma in (0, support]."""
    lo = np.searchsorted(points, sigmas, side="right")
    hi = np.minimum(np.searchsorted(points, sigmas + support, side="right") + 2, len(points))
    counts = np.maximum(hi - lo, 0)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.repeat(lo, counts) + np.arange(counts.sum()) - starts
    lags = points[rows] - np.repeat(sigmas, counts)
    ok = (lags > 0.0) & (lags <= support)
    rows, lags = rows[ok], lags[ok]
    bins = np.searchsorted(np.linspace(0.0, support, n_bins + 1), lags, side="right") - 1
    bins[lags == support] = n_bins - 1
    return rows, bins


def log_link_nll(trial: dict, target: str, base_n: int, support: float, beta0: float,
                 filters: dict[str, np.ndarray]) -> dict:
    """Discretized log-link nll of one trial, with its compensator and rounding scale.

    ``filters`` maps each input channel to its values at the bin lags.
    Returns nll, compensator sum exp(xi_l) Delta_l, the number of target
    events, and ``slack``: a bound on how far the nll can move when every
    filter value carries the relative rounding CSV_REL, plus the float error
    of the sums.
    """
    points, jumps = time_grid(trial["t_end"], base_n, trial["events"][target])
    xi = np.full(len(points), beta0)
    reach = np.zeros(len(points))
    for ch, values in filters.items():
        rows, bins = lag_bins(points, trial["events"][ch], support, len(values))
        xi += np.bincount(rows, weights=values[bins], minlength=len(points))
        reach += np.bincount(rows, weights=np.abs(values[bins]), minlength=len(points))
    rate_dt = np.exp(xi[1:]) * np.diff(points)
    compensator = float(math.fsum(rate_dt))
    jump_sum = float(math.fsum(xi[jumps]))
    slack = CSV_REL * (float(rate_dt @ reach[1:]) + float(reach[jumps].sum()))
    slack += SUM_REL * (compensator + float(np.abs(xi[jumps]).sum()))
    return {"nll": compensator - jump_sum, "compensator": compensator,
            "n_events": len(jumps), "slack": slack}


# -- per-command checks ----------------------------------------------------------


def check_fit(trials: list[dict], out: dict, target: str, base_n: int, support: float) -> list[Problem]:
    """`ppfilt fit` (log link, direct mode): likelihood, score, sandwich, bands, TIC."""
    fit, bands = out["fit"], out["bands"]
    problems = []
    filters = {ch: band["estimate"] for ch, band in bands.items()}
    rec = [log_link_nll(t, target, base_n, support, fit["coefficients"]["beta0"], filters) for t in trials]
    nll = sum(r["nll"] for r in rec)
    slack = sum(r["slack"] for r in rec)
    if not abs(nll - fit["nll"]) <= slack:
        problems.append((0, f"nll {fit['nll']!r} but recomputed {nll!r} (slack {slack:.3g})"))
    compensator = sum(r["compensator"] for r in rec)
    n_events = sum(r["n_events"] for r in rec)
    if not abs(compensator - n_events) <= fit["grad_norm"] + slack:
        problems.append((0, f"intercept score |{compensator!r} - {n_events}| exceeds grad_norm {fit['grad_norm']!r}"))
    dim = fit["matrices"]["dim"]
    k00 = fit["matrices"]["k_hat"][0]
    if not abs(k00 - compensator) <= slack + SUM_REL * abs(compensator):
        problems.append((0, f"k_hat[0][0] {k00!r} != compensator {compensator!r}"))
    problems += check_sandwich(np.asarray(fit["matrices"]["sandwich"]).reshape(dim, dim))
    for ch, band in bands.items():
        if not (np.all(band["lower"] <= band["estimate"]) and np.all(band["estimate"] <= band["upper"])):
            problems.append((0, f"filters_{ch}.csv: estimate outside [lower, upper]"))
    trace_term = fit["tic"] - fit["nll"]
    if not 0.0 < trace_term <= dim:
        problems.append((0, f"tic - nll = {trace_term!r} outside (0, {dim}]"))
    return problems


def check_sandwich(sandwich: np.ndarray, rel: float = 1e-9) -> list[Problem]:
    """Symmetric positive semidefinite, up to `rel` of its largest entry/eigenvalue."""
    scale = float(np.abs(sandwich).max())
    if not np.abs(sandwich - sandwich.T).max() <= rel * scale:
        return [(0, "sandwich is not symmetric")]
    eig = np.linalg.eigvalsh(0.5 * (sandwich + sandwich.T))
    if not eig[0] >= -rel * max(eig[-1], 0.0):
        return [(0, f"sandwich has eigenvalue {eig[0]:.3g} < 0 (largest {eig[-1]:.3g})")]
    return []


def check_scan(rows: list[dict], c_grid: list[float], lam_grid: list[float], dim: int) -> list[Problem]:
    """`ppfilt tic-scan`: one row per cell, nll nondecreasing in lambda, trace term in (0, dim].

    At fixed c the penalized minimizers satisfy nll(lam1) <= nll(lam2) for
    lam1 < lam2 (compare each objective at the other's minimizer).  The
    tolerance covers a minimizer missed by at most 1e-6 relative.
    """
    problems = []
    cells = {(float(r["c"]), float(r["lambda"])): r for r in rows}
    for i, c in enumerate(c_grid):
        prev = None
        for j, lam in enumerate(lam_grid):
            idx = i * len(lam_grid) + j
            row = cells.get((float(c), float(lam)))
            if row is None:
                problems.append((idx, f"no row for c={c} lambda={lam}"))
                continue
            nll, term = float(row["nll"]), float(row["trace_term"])
            if not math.isfinite(nll):
                problems.append((idx, f"c={c} lambda={lam}: nll {nll}"))
                continue
            if not 0.0 < term <= dim:
                problems.append((idx, f"c={c} lambda={lam}: trace term {term!r} outside (0, {dim}]"))
            if prev is not None and nll < prev - 1e-6 * max(1.0, abs(prev)):
                problems.append((idx, f"c={c}: nll fell from {prev!r} to {nll!r} as lambda grew to {lam}"))
            prev = nll
    return problems


def intercept_only_nll(trials: list[dict], target: str) -> float:
    """N - N log(N / T): the Poisson nll at the intercept-only optimum, where BFGS starts."""
    n = sum(len(t["events"][target]) for t in trials)
    total = sum(t["t_end"] for t in trials)
    return n - n * math.log(n / total)


def check_cv(trials: list[dict], rows: list[dict], target: str, rel: float = 1e-9) -> list[Problem]:
    """`ppfilt cv` fold rows: each train nll at most the start value; val nll finite.

    `rel` covers the float error of the program's own evaluation of the start
    value, a sum over a few hundred thousand grid rows.
    """
    problems = []
    folds = {int(r["holdout"]): r for r in rows}
    for k in range(len(trials)):
        row = folds.get(k)
        if row is None:
            problems.append((k, f"no row for fold {k}"))
            continue
        bound = intercept_only_nll([t for i, t in enumerate(trials) if i != k], target)
        train = float(row["train_nll"])
        if not train <= bound + rel * abs(bound):
            problems.append((k, f"fold {k}: train nll {train!r} above the starting value {bound!r}"))
        if not math.isfinite(float(row["val_nll"])):
            problems.append((k, f"fold {k}: val nll {row['val_nll']}"))
    return problems
