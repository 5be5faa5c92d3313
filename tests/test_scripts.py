"""Smoke runs of the example scripts in scripts/."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_recovery_demo_writes_curves(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts/recovery_demo.py"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
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
