"""Command-line behavior: files, exit codes, determinism, schema validity."""

import csv
import json
from pathlib import Path

import jsonschema
import pytest

from ppfilt.cli import _fit_config, build_parser, main
from ppfilt.links import parse_family
from ppfilt.model import FitConfig
from ppfilt.optimize import OptimSettings

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src/ppfilt/schemas/fit_result.schema.json"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "events.json"
    code = run(
        "simulate", "--out", path, "--seed", 3, "--trials", 3, "--horizon", 25,
        "--channels", 2, "--family", "log", "--baseline", 0.0,
        "--alpha", -8.0, "--beta", -0.5,
    )
    assert code == 0
    return path


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("simulate", "--out", out, "--seed", 7, "--trials", 2,
                       "--horizon", 10, "--channels", 1, "--baseline", 0.3) == 0
        assert a.read_text() == b.read_text()

    def test_csv_has_trial_ids(self, tmp_path):
        out = tmp_path / "events.csv"
        assert run("simulate", "--out", out, "--format", "csv", "--seed", 1,
                   "--trials", 5, "--horizon", 20, "--channels", 3,
                   "--baseline", 0.2) == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "channel", "time"]
        assert {r[0] for r in rows[1:]} == {"0", "1", "2", "3", "4"}

    def test_explosion_exit_code(self, tmp_path):
        code = run("simulate", "--out", tmp_path / "x.json", "--seed", 3,
                   "--horizon", 100, "--channels", 1, "--family", "log",
                   "--baseline", 0.5, "--alpha", -1.0, "--beta", 2.0, "--cap", 200)
        assert code == 3

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "channels": ["x", "y"],
            "t_end": 15.0,
            "family": "log",
            "baseline": {"x": 0.0, "y": -0.3},
            "filters": [
                {"target": "x", "source": "y", "type": "exp", "alpha": -5.0, "beta": -0.4}
            ],
        }))
        out = tmp_path / "events.json"
        assert run("simulate", "--out", out, "--config", cfg, "--seed", 4) == 0
        payload = json.loads(out.read_text())
        assert set(payload["trials"][0]["events"]) == {"x", "y"}


class TestFit:
    def test_end_to_end_writes_files(self, sim_file, tmp_path):
        out = tmp_path / "fit"
        code = run("fit", "--data", sim_file, "--target", "c0",
                   "--support", 0.3, "--grid-n", 400, "--delta-n", 20,
                   "--mode", "direct", "--family", "log", "--lambda", 0.5, "--out", out)
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        jsonschema.validate(payload, json.loads(SCHEMA_PATH.read_text()))
        assert payload["converged"] is True
        assert payload["matrices"]["dim"] == 1 + 2 * payload["q"]
        for ch in ("c0", "c1"):
            band = out / f"filters_{ch}.csv"
            with band.open() as fh:
                header = next(csv.reader(fh))
            assert header == ["lag", "estimate", "lower", "upper"]

    def test_baseline_only_matches_empirical_rate(self, sim_file, tmp_path):
        import numpy as np

        from ppfilt.events import load_events

        out = tmp_path / "fit0"
        code = run("fit", "--data", sim_file, "--target", "c0", "--inputs", "",
                   "--support", 0.3, "--grid-n", 300, "--delta-n", 10,
                   "--family", "log", "--lambda", 0.0, "--out", out)
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        data = load_events(sim_file)
        rate = data.total_count("c0") / data.total_time()
        assert np.exp(payload["coefficients"]["beta0"]) == pytest.approx(rate, rel=1e-4)

    def test_fit_is_deterministic(self, sim_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("fit", "--data", sim_file, "--target", "c0",
                       "--support", 0.3, "--grid-n", 300, "--delta-n", 16,
                       "--family", "log", "--lambda", 0.5, "--out", out) == 0
            outs.append((out / "fit.json").read_text())
        assert outs[0] == outs[1]

    def test_reference_shaped_config(self, tmp_path):
        # 3 input channels, support 0.4, direct N = 200 with q tuned near 33,
        # lambda 0.125, log family: the benchmark-figure configuration shape
        data = tmp_path / "three.json"
        assert run("simulate", "--out", data, "--seed", 12, "--trials", 2,
                   "--horizon", 30, "--channels", 3, "--family", "log",
                   "--baseline", 0.0, "--alpha", -8.0, "--beta", -0.6) == 0
        out = tmp_path / "reference"
        code = run("fit", "--data", data, "--target", "c0",
                   "--inputs", "c0,c1,c2", "--support", 0.4,
                   "--grid-n", 2000, "--delta-n", 200, "--basis-q", 33,
                   "--mode", "basis", "--family", "log", "--lambda", 0.125,
                   "--out", out)
        assert code in (0, 2)
        payload = json.loads((out / "fit.json").read_text())
        assert payload["q"] == 33
        assert payload["lambda"] == 0.125
        assert len(payload["coefficients"]["beta"]) == 3

    def test_basis_mode_with_exact_lag_z(self, sim_file, tmp_path):
        out = tmp_path / "zdirect"
        code = run("fit", "--data", sim_file, "--target", "c0",
                   "--support", 0.3, "--grid-n", 400, "--delta-n", 20,
                   "--mode", "basis", "--basis-q", 6, "--z-direct",
                   "--family", "log", "--lambda", 0.5, "--out", out)
        assert code in (0, 2)
        payload = json.loads((out / "fit.json").read_text())
        jsonschema.validate(payload, json.loads(SCHEMA_PATH.read_text()))
        assert (payload["mode"], payload["q"]) == ("basis", 6)

    def test_basis_mode_requires_q(self, sim_file, tmp_path):
        code = run("fit", "--data", sim_file, "--target", "c0", "--mode", "basis",
                   "--out", tmp_path / "f")
        assert code == 1

    def test_non_convergence_exit_two_still_writes(self, sim_file, tmp_path):
        out = tmp_path / "short"
        code = run("fit", "--data", sim_file, "--target", "c0",
                   "--support", 0.3, "--grid-n", 400, "--delta-n", 20,
                   "--family", "log", "--lambda", 0.5, "--max-iter", 1,
                   "--out", out)
        assert code == 2
        payload = json.loads((out / "fit.json").read_text())
        assert payload["converged"] is False

    def test_missing_file_exit_one(self, tmp_path):
        assert run("fit", "--data", tmp_path / "nope.json", "--target", "a",
                   "--out", tmp_path / "f") == 1

    def test_config_file_flags_win(self, sim_file, tmp_path):
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({
            "target": "c0", "support": 0.3, "grid_n": 300, "delta_n": 16,
            "mode": "direct", "family": "log", "lam": 0.25,
        }))
        out = tmp_path / "out"
        code = run("fit", "--data", sim_file, "--config", cfg,
                   "--lambda", 0.75, "--out", out)
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["lambda"] == 0.75  # flag overrides config value
        assert payload["delta_n"] == 16

    def test_no_optional_flags_keep_fit_config_defaults(self):
        argv = ["fit", "--data", "d.json", "--target", "c0", "--out", "o"]
        args = build_parser().parse_args(argv)
        assert _fit_config(args) == FitConfig(target="c0")

    def test_given_flags_reach_fit_config(self):
        args = build_parser().parse_args([
            "cv", "--data", "d.json", "--target", "c0", "--out", "o", "--inputs", "c0,c1",
            "--support", "0.3", "--grid-n", "300", "--delta-n", "16", "--mode", "basis",
            "--basis-q", "6", "--family", "logaffine:0.5", "--lambda", "0.25",
            "--threshold", "1e-6", "--z-direct", "--max-iter", "7", "--eval-grid-n", "500",
        ])
        assert _fit_config(args) == FitConfig(
            target="c0", inputs=["c0", "c1"], support=0.3, base_n=300, delta_n=16,
            mode="basis", family=parse_family("logaffine:0.5"), lam=0.25, q=6,
            threshold=1e-6, use_direct_z=True, eval_base_n=500,
            optim=OptimSettings(max_iter=7),
        )


class TestCv:
    def test_rows_plus_mean(self, sim_file, tmp_path):
        out = tmp_path / "cv"
        code = run("cv", "--data", sim_file, "--target", "c0",
                   "--support", 0.3, "--grid-n", 300, "--delta-n", 16,
                   "--family", "log", "--lambda", 0.5,
                   "--eval-grid-n", 600, "--out", out)
        assert code == 0
        with (out / "cv.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["holdout", "train_nll", "val_nll", "converged"]
        assert len(rows) == 1 + 3 + 1  # header, three folds, mean
        assert rows[-1][0] == "mean"

    def test_single_trial_exit_one(self, tmp_path):
        single = tmp_path / "one.json"
        assert run("simulate", "--out", single, "--seed", 5, "--trials", 1,
                   "--horizon", 20, "--channels", 1, "--baseline", 0.3) == 0
        assert run("cv", "--data", single, "--target", "c0",
                   "--grid-n", 200, "--delta-n", 10, "--out", tmp_path / "cv") == 1


class TestTicScan:
    def test_single_cell_marked(self, sim_file, tmp_path):
        out = tmp_path / "scan1"
        code = run("tic-scan", "--data", sim_file, "--target", "c0",
                   "--support", 0.3, "--grid-n", 300, "--delta-n", 16,
                   "--lambda-grid", "0.5", "--c-grid", "1.0", "--out", out)
        assert code == 0
        with (out / "tic_table.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "best"
        assert len(rows) == 2
        assert rows[1][-1] == "True"

    def test_two_point_lambda_grid(self, sim_file, tmp_path):
        out = tmp_path / "scan2"
        code = run("tic-scan", "--data", sim_file, "--target", "c0",
                   "--support", 0.3, "--grid-n", 300, "--delta-n", 16,
                   "--lambda-grid", "0.125,2", "--c-grid", "inf", "--out", out)
        assert code == 0
        with (out / "tic_table.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert sum(r[-1] == "True" for r in rows[1:]) == 1


class TestBench:
    def test_smoke_csv_columns(self, tmp_path):
        out = tmp_path / "bench"
        code = run("bench", "--modes", "direct", "--n-grid", "1000",
                   "--delta-n-grid", "50", "--q-grid", "20", "--reps", 3, "--out", out)
        assert code == 0
        with (out / "bench.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mode", "n", "N", "q", "p", "nnz",
                           "sparse_bytes", "dense_bytes", "nll_ms", "grad_ms", "blas_threads"]
        assert len(rows) == 2
        assert float(rows[1][-2]) > 0
