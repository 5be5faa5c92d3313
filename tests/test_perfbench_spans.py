"""Traced runs: perfbench/spans.py wraps a fit and its spans give the per-layer metrics."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ppfilt.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench/spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def events_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "events.json"
    code = main([
        "simulate", "--out", str(path), "--seed", "3", "--trials", "2", "--horizon", "20",
        "--channels", "2", "--baseline", "0.0", "--alpha", "-8.0", "--beta", "-0.5",
    ])
    assert code == 0
    return path


@pytest.mark.parametrize("mode_flags", [[], ["--mode", "basis", "--basis-q", "6"]],
                         ids=["direct", "basis"])
def test_traced_fit_gives_layer_metrics(events_file, mode_flags, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable, "perfbench/spans.py", str(out), "fit", "--data", str(events_file),
            "--target", "c0", "--support", "0.3", "--grid-n", "400", "--delta-n", "20",
            *mode_flags, "--out", str(tmp_path / "fit"),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert doc["exit"] == 0
    metrics = load_spans().layer_metrics(doc)
    assert metrics["sparse.design_mb"] > 0
    assert metrics["sparse.products_per_eval"] == 2
