"""Smoke runs of the example scripts in scripts/."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_recovery_demo_writes_curves(tmp_path):
    proc = run_script("recovery_demo.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    headers = {
        "recovery_direct.csv": ["lag", "estimate", "lower", "upper", "truth"],
        "recovery_basis.csv": ["lag", "estimate", "lower", "upper", "truth"],
        "tic_direct.csv": ["lambda", "tic", "converged"],
        "tic_basis.csv": ["lambda", "tic", "converged"],
    }
    for name, header in headers.items():
        with (tmp_path / name).open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header, name
        assert len(rows) > 1, name


def test_scaling_study_writes_bench_rows(tmp_path):
    proc = run_script("scaling_study.py", "--reps", 1, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    with (tmp_path / "bench.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "mode", "n", "N", "q", "p", "nnz", "sparse_bytes", "dense_bytes",
        "nll_ms", "grad_ms", "blas_threads",
    ]
    assert len(rows) == 1 + 13  # 8 slope cells, 2 basis-size cells, 3 lag-grid cells
