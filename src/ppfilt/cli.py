"""Command-line front-end: simulate, fit, cross-validate, TIC scan, benchmark.

Exit codes: 0 success, 1 usage or data error, 2 fit did not converge
(outputs are still written), 3 simulated process exploded.
All outputs are plot-ready CSV/JSON with header rows; fit.json validates
against the schema shipped in ppfilt/schemas/fit_result.schema.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .events import load_events, save_events
from .inference import filter_bands
from .links import parse_family
from .model import FitConfig, cross_validate, fit, model_scan
from .optimize import OptimSettings
from .simulate import ExpFilter, ExplosionError, SimConfig, TabulatedFilter, simulate_trials


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _merge_config_file(args: argparse.Namespace, keys: dict) -> None:
    """Fill unset flags from --config JSON; explicit flags win."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        payload = json.load(fh)
    for key, parser in keys.items():
        if getattr(args, key, None) is None and key in payload:
            value = payload[key]
            setattr(args, key, parser(value) if parser else value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppfilt",
        description="Penalized likelihood estimation of linear point-process filters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate event data by Ogata thinning")
    sim.add_argument("--out", required=True, help="output events file")
    sim.add_argument("--format", choices=["json", "csv"], default="json")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--horizon", type=float, default=None)
    sim.add_argument("--channels", type=int, default=None)
    sim.add_argument("--family", default=None)
    sim.add_argument("--baseline", type=float, default=None)
    sim.add_argument("--alpha", type=float, default=None, help="exp filter decay (< 0)")
    sim.add_argument("--beta", type=float, default=None, help="exp filter log-height")
    sim.add_argument("--coupling", choices=["self", "full"], default="self")
    sim.add_argument("--cap", type=int, default=None, help="explosion cap on event count")
    sim.add_argument("--config", default=None, help="JSON model description")

    def add_fit_flags(p):
        p.add_argument("--data", required=True)
        p.add_argument("--target", default=None)
        p.add_argument("--inputs", type=_str_list, default=None)
        p.add_argument("--support", type=float, default=None)
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        p.add_argument("--delta-n", type=int, default=None, dest="delta_n")
        p.add_argument("--basis-q", type=int, default=None, dest="basis_q")
        p.add_argument("--mode", choices=["direct", "basis"], default=None)
        p.add_argument("--family", default=None)
        p.add_argument("--lambda", type=float, default=None, dest="lam")
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--z-direct", action="store_true", dest="z_direct")
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None)

    fitp = sub.add_parser("fit", help="fit one target channel")
    add_fit_flags(fitp)

    cvp = sub.add_parser("cv", help="leave-one-trial-out cross-validation")
    add_fit_flags(cvp)
    cvp.add_argument("--eval-grid-n", type=int, default=None, dest="eval_grid_n")

    scan = sub.add_parser("tic-scan", help="TIC over a (c, lambda) grid")
    add_fit_flags(scan)
    scan.add_argument("--lambda-grid", type=_float_list, default=None, dest="lam_grid")
    scan.add_argument("--c-grid", type=_float_list, default=None, dest="c_grid")

    ben = sub.add_parser("bench", help="memory/time scaling study")
    ben.add_argument("--modes", type=_str_list, default=["direct", "basis"])
    ben.add_argument("--n-grid", type=_int_list, default=[5000, 10000, 20000, 40000])
    ben.add_argument("--delta-n-grid", type=_int_list, default=[100, 400])
    ben.add_argument("--q-grid", type=_int_list, default=[33, 100])
    ben.add_argument("--p", type=int, default=3)
    ben.add_argument("--support", type=float, default=0.4)
    ben.add_argument("--reps", type=int, default=20)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--out", required=True)
    return parser


# -- simulate ----------------------------------------------------------------


def _filters_from_payload(entries) -> dict:
    filters = {}
    for entry in entries:
        pair = (entry["target"], entry["source"])
        if entry.get("type", "exp") == "exp":
            filters[pair] = ExpFilter(alpha=float(entry["alpha"]), beta=float(entry["beta"]))
        else:
            filters[pair] = TabulatedFilter(
                lags=np.asarray(entry["lags"], dtype=np.float64),
                values=np.asarray(entry["values"], dtype=np.float64),
            )
    return filters


def cmd_simulate(args: argparse.Namespace) -> int:
    payload = {}
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
    channels = payload.get("channels")
    if channels is None:
        channels = [f"c{i}" for i in range(args.channels if args.channels else 3)]
    family = payload.get("family", "log")
    if args.family is not None:
        family = args.family
    link = (
        {ch: parse_family(f) for ch, f in family.items()}
        if isinstance(family, dict)
        else parse_family(family)
    )
    baseline = payload.get("baseline", 0.0)
    if args.baseline is not None:
        baseline = args.baseline
    if "filters" in payload:
        filters = _filters_from_payload(payload["filters"])
    elif args.alpha is not None and args.beta is not None:
        pairs = (
            [(a, a) for a in channels]
            if args.coupling == "self"
            else [(a, b) for a in channels for b in channels]
        )
        filters = {pair: ExpFilter(alpha=args.alpha, beta=args.beta) for pair in pairs}
    else:
        filters = {}
    cfg = SimConfig(
        channels=channels,
        t_end=args.horizon if args.horizon is not None else float(payload.get("t_end", 40.0)),
        link=link,
        baseline=baseline,
        filters=filters,
        seed=args.seed if args.seed is not None else int(payload.get("seed", 0)),
        explosion_cap=args.cap if args.cap is not None else int(payload.get("cap", 1_000_000)),
    )
    data = simulate_trials(cfg, args.trials if args.trials is not None else 1)
    save_events(data, args.out, format=args.format)
    total = sum(data.total_count(ch) for ch in data.channels)
    print(f"wrote {data.n_trials} trial(s), {total} events to {args.out}")
    return 0


# -- fit / cv / scan ---------------------------------------------------------

_FIT_CONFIG_KEYS = {
    "target": None,
    "inputs": None,
    "support": float,
    "grid_n": int,
    "delta_n": int,
    "basis_q": int,
    "mode": None,
    "family": None,
    "lam": float,
    "threshold": float,
    "eval_grid_n": int,
    "max_iter": int,
    "lam_grid": None,
    "c_grid": None,
}


def _fit_config(args: argparse.Namespace) -> FitConfig:
    """FitConfig from the given flags; every flag left unset keeps FitConfig's default."""
    _merge_config_file(args, _FIT_CONFIG_KEYS)
    if args.target is None:
        raise ValueError("--target is required (flag or config file)")
    if args.mode == "basis" and args.basis_q is None:
        raise ValueError("basis mode requires --basis-q")
    given = dict(
        inputs=args.inputs, support=args.support, base_n=args.grid_n, delta_n=args.delta_n,
        mode=args.mode, lam=args.lam, q=args.basis_q, threshold=args.threshold,
        family=parse_family(args.family) if args.family else None,
        use_direct_z=args.z_direct or None, eval_base_n=getattr(args, "eval_grid_n", None),
        optim=None if args.max_iter is None else OptimSettings(max_iter=args.max_iter),
    )
    return FitConfig(target=args.target, **{k: v for k, v in given.items() if v is not None})


def _fit_payload(result, config: FitConfig) -> dict:
    dim = result.k_hat.shape[0]
    return {
        "target": result.extras["target"],
        "inputs": result.extras["inputs"],
        "mode": result.mode,
        "family": result.link,
        "lambda": result.lam,
        "support": result.extras["support"],
        "grid_n": result.extras["base_n"],
        "delta_n": result.extras["delta_n"],
        "q": result.extras["q"],
        "converged": result.converged,
        "iterations": result.iterations,
        "grad_norm": result.grad_norm,
        "nll": result.nll,
        "penalized_nll": result.penalized_nll,
        "tic": result.tic,
        "coefficients": {
            "beta0": result.coef.beta0,
            "beta": np.asarray(result.coef.beta).tolist(),
        },
        "matrices": {
            "dim": dim,
            "k_hat": result.k_hat.ravel().tolist(),
            "j_hat": result.j_hat.ravel().tolist(),
            "sandwich": result.sandwich.ravel().tolist(),
        },
    }


def _write_bands(result, out_dir: Path) -> None:
    spec = result.extras["spec"]
    for idx, channel in enumerate(result.extras["inputs"]):
        band = filter_bands(result, spec, idx, channel)
        path = out_dir / f"filters_{channel}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lag", "estimate", "lower", "upper"])
            for row in zip(band.lags, band.estimate, band.lower, band.upper):
                writer.writerow([f"{v:.12g}" for v in row])


def cmd_fit(args: argparse.Namespace) -> int:
    config = _fit_config(args)
    data = load_events(args.data)
    result = fit(data, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "fit.json").open("w") as fh:
        json.dump(_fit_payload(result, config), fh, indent=1)
    _write_bands(result, out_dir)
    print(
        f"fit {'converged' if result.converged else 'DID NOT CONVERGE'} "
        f"in {result.iterations} iterations; nll={result.nll:.6g} tic={result.tic:.6g}"
    )
    return 0 if result.converged else 2


def cmd_cv(args: argparse.Namespace) -> int:
    config = _fit_config(args)
    data = load_events(args.data)
    result = cross_validate(data, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "cv.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["holdout", "train_nll", "val_nll", "converged"])
        for fold in result.folds:
            writer.writerow([fold.holdout, fold.train_nll, fold.val_nll, fold.converged])
        writer.writerow(["mean", "", result.mean_val_nll, ""])
    print(f"mean validation nll: {result.mean_val_nll:.6g}")
    return 0


def cmd_tic_scan(args: argparse.Namespace) -> int:
    config = _fit_config(args)
    data = load_events(args.data)
    lam_grid = args.lam_grid if args.lam_grid else [config.lam]
    c_grid = args.c_grid if args.c_grid is not None else [math.inf]
    result = model_scan(data, config, c_grid=c_grid, lam_grid=lam_grid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "tic_table.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "lambda", "nll", "trace_term", "tic", "converged", "best"])
        for cell in result.cells:
            is_best = cell is result.best
            writer.writerow(
                [cell.c, cell.lam, cell.nll, cell.trace_term, cell.tic, cell.converged, is_best]
            )
    print(f"best: c={result.best.c:g} lambda={result.best.lam:g} tic={result.best.tic:.6g}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    rows = bench_mod.run_bench(
        modes=args.modes,
        n_grid=args.n_grid,
        delta_n_grid=args.delta_n_grid,
        q_grid=args.q_grid,
        p=args.p,
        support=args.support,
        reps=args.reps,
        seed=args.seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bench.csv").write_text(bench_mod.rows_to_csv(rows))
    print(f"wrote {len(rows)} bench rows to {out_dir / 'bench.csv'}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "cv": cmd_cv,
    "tic-scan": cmd_tic_scan,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ExplosionError as exc:
        print(f"explosion: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, IndexError, OSError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
