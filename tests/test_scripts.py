"""Smoke runs of the example scripts in scripts/."""

import csv
import importlib.util
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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall, rss, failed=0, correct=True):
    return {
        "correct": correct, "attempted": 40, "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "rss": {"value": rss, "unit": "MB"}},
    }


def test_bench_pairs_summary():
    summarize = load_bench_pairs().summarize
    walls = [(1.0, 0.7), (1.2, 0.8), (0.9, 0.95), (1.1, 0.75), (1.0, 0.7)]
    pairs = [
        {"seed": 11 + i, "parent": result_line(a, 70.0 + i), "change": result_line(b, 70.0 + 2 * i)}
        for i, (a, b) in enumerate(walls)
    ]
    pairs[2]["change"] = result_line(0.95, 74.0, failed=1, correct=False)
    out = summarize(pairs, {"wall_s": "lower", "rss": "higher"})
    assert out["seeds"] == [11, 12, 13, 14, 15]
    assert out["correct"] == {"parent": True, "change": False}
    assert out["failed"] == {"parent": 0, "change": 1}
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [1.0, 1.2, 0.9, 1.1, 1.0]
    # inclusive quartiles of 0.9, 1.0, 1.0, 1.1, 1.2 and of 0.7, 0.7, 0.75, 0.8, 0.95
    assert (wall["parent"]["q1"], wall["parent"]["median"], wall["parent"]["q3"]) == (1.0, 1.0, 1.1)
    assert (wall["change"]["q1"], wall["change"]["median"], wall["change"]["q3"]) == (0.7, 0.75, 0.8)
    assert (wall["change_wins"], wall["pairs"], wall["unit"]) == (4, 5, "s")
    assert wall["gap_exceeds_parent_spread"]  # 0.25 > 1.1 - 1.0
    # "higher" is better for rss here; the change is higher on every seed but the tied first
    rss = out["metrics"]["rss"]
    assert (rss["better"], rss["change_wins"]) == ("higher", 4)
    # a gain of 74 - 72 only equals the parent's spread 73 - 71
    assert rss["change"]["median"] == 74.0 and rss["gap_exceeds_parent_spread"] is False


def test_bench_pairs_quartiles_of_one_value():
    assert load_bench_pairs().quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}
