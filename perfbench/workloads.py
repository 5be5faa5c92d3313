"""The benchmark's workloads: generated inputs, the ppfilt command, its verdicts.

All inputs are the Hawkes-like streams of `ppfilt.bench.hawkes_like_data`,
made with `ppfilt simulate`: three channels, identity link, baseline 1.4 Hz,
self-exciting filter exp(-10 s + log 5), i.e. branching ratio 0.5, decay
10/s, so about 2.8 Hz per channel.  Every fit targets c0 with all three
channels as inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import checks

CHANNELS = ["c0", "c1", "c2"]
TARGET = "c0"
BASELINE = 1.4
BRANCHING = 0.5
DECAY = 10.0
SUPPORT = 0.4  # filter support A, the ppfilt default


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # ppfilt subcommand
    args: tuple           # its flags besides --data, --target and --out
    horizon: float        # seconds per trial
    trials: int           # trials per dataset
    datasets: int         # independent datasets per run; a round fits each once
    fits: int             # fits per command

    def simulate_args(self, seed: int, k: int, out: Path) -> list[str]:
        """`ppfilt simulate` arguments for dataset k of the run with this seed.

        The simulator's seed is 1000 * seed + k, so no two runs or datasets
        share one while a run has fewer than 1000 datasets.
        """
        return [
            "simulate", "--out", str(out), "--seed", str(1000 * seed + k),
            "--trials", str(self.trials), "--horizon", repr(self.horizon),
            "--channels", str(len(CHANNELS)), "--family", "identity",
            "--baseline", repr(BASELINE), "--alpha", repr(-DECAY),
            "--beta", repr(math.log(BRANCHING * DECAY)), "--coupling", "self",
        ]

    def command_args(self, data: Path, out: Path) -> list[str]:
        return [self.command, "--data", str(data), "--target", TARGET, *self.args, "--out", str(out)]

    def flag(self, name: str) -> str:
        return self.args[self.args.index(name) + 1]

    def verdict(self, trials: list[dict], out: Path, exit_code: int) -> tuple[list, int]:
        """(problems, fits reported not converged) for one command's outputs."""
        if exit_code not in ((0, 2) if self.command == "fit" else (0,)):
            return [(None, f"{self.command} exited with code {exit_code}")], 0
        base_n = int(self.flag("--grid-n"))
        if self.command == "fit":
            result = checks.read_fit(out, CHANNELS)
            problems = checks.check_fit(trials, result, TARGET, base_n, SUPPORT)
            if result["fit"]["converged"] != (exit_code == 0):
                problems.append((0, f"fit.json converged={result['fit']['converged']} but exit {exit_code}"))
            return problems, int(exit_code == 2)
        if self.command == "tic-scan":
            rows = checks.read_table(out / "tic_table.csv")
            c_grid = [float(c) for c in self.flag("--c-grid").split(",")]
            lam_grid = [float(v) for v in self.flag("--lambda-grid").split(",")]
            dim = 1 + len(CHANNELS) * int(self.flag("--basis-q"))
            return checks.check_scan(rows, c_grid, lam_grid, dim), _not_converged(rows)
        rows = [r for r in checks.read_table(out / "cv.csv") if r["holdout"] != "mean"]
        return checks.check_cv(trials, rows, TARGET), _not_converged(rows)


def _not_converged(rows: list[dict]) -> int:
    return sum(1 for r in rows if r["converged"] != "True")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-direct-fine",
            command="fit",
            args=("--mode", "direct", "--grid-n", "200000", "--delta-n", "400",
                  "--family", "log", "--lambda", "0.1"),
            horizon=500.0, trials=1, datasets=7, fits=1,
        ),
        Workload(
            name="scan-basis",
            command="tic-scan",
            args=("--mode", "basis", "--basis-q", "33", "--grid-n", "10000", "--delta-n", "100",
                  "--c-grid", "0,1,inf", "--lambda-grid", "0.01,0.1,1"),
            horizon=100.0, trials=1, datasets=14, fits=9,
        ),
        Workload(
            name="cv-direct",
            command="cv",
            args=("--mode", "direct", "--grid-n", "10000", "--eval-grid-n", "20000", "--delta-n", "200",
                  "--family", "log", "--lambda", "0.1"),
            horizon=100.0, trials=5, datasets=8, fits=5,
        ),
    )
}

