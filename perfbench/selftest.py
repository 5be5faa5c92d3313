"""Self-test of the output checks: each must pass real outputs and fail perturbed ones.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload this generates one dataset, runs the workload's command
once, and checks the real outputs, which must pass.  Then it feeds each
check a perturbed copy of those outputs and requires the check to report
the fault it names.  Exit code 0 means every check passed its real output
and caught every perturbation.
"""

from __future__ import annotations

import copy
import shutil
import sys

import checks
import envinfo
from run import WORK, Child
from workloads import BASELINE, BRANCHING, CHANNELS, SUPPORT, TARGET, WORKLOADS

SEED = 1


def _events_cases(trials, horizon):
    def run(ts):
        return checks.check_events(ts, CHANNELS, horizon, BASELINE, BRANCHING)

    def outside(ts):
        ts[0]["events"]["c1"][-1] = horizon
        return ts

    def unsorted(ts):
        ev = ts[0]["events"]["c1"]
        ev[3], ev[4] = ev[4], ev[3]
        return ts

    def thinned(ts):
        ts[0]["events"]["c2"] = ts[0]["events"]["c2"][::10]
        return ts

    return run, trials, [
        ("event at T", outside, "outside"),
        ("two times swapped", unsorted, "strictly increasing"),
        ("nine tenths of a channel dropped", thinned, "expected"),
    ]


def _fit_cases(trials, out, base_n):
    def run(o):
        return checks.check_fit(trials, o, TARGET, base_n, SUPPORT)

    def edit(fn):
        def apply(o):
            fn(o["fit"], o["bands"])
            return o
        return apply

    def set_sandwich_diag(fit, bands):
        dim = fit["matrices"]["dim"]
        fit["matrices"]["sandwich"][dim + 1] *= -1.0

    def skew_sandwich(fit, bands):
        s = fit["matrices"]["sandwich"]
        s[2] += 1e-3 * max(abs(v) for v in s)

    return run, out, [
        ("nll 1e-9 relative off", edit(lambda f, b: f.__setitem__("nll", f["nll"] * (1 + 1e-9))), "recomputed"),
        ("self filter 1% higher", edit(lambda f, b: b[TARGET].__setitem__("estimate", b[TARGET]["estimate"] * 1.01)),
         "recomputed"),
        ("intercept 1e-5 higher", edit(lambda f, b: f["coefficients"].__setitem__("beta0", f["coefficients"]["beta0"] + 1e-5)),
         "intercept score"),
        ("k_hat[0][0] 1e-8 relative off", edit(lambda f, b: f["matrices"]["k_hat"].__setitem__(0, f["matrices"]["k_hat"][0] * (1 + 1e-8))),
         "k_hat[0][0]"),
        ("sandwich not symmetric", edit(skew_sandwich), "not symmetric"),
        ("sandwich diagonal entry negated", edit(set_sandwich_diag), "eigenvalue"),
        ("band lower above estimate", edit(lambda f, b: b["c1"]["lower"].__setitem__(5, b["c1"]["estimate"][5] + 1.0)),
         "outside [lower, upper]"),
        ("tic below nll", edit(lambda f, b: f.__setitem__("tic", f["nll"] - 1.0)), "tic - nll"),
    ]


def _scan_cases(rows, workload):
    c_grid = [float(c) for c in workload.flag("--c-grid").split(",")]
    lam_grid = [float(v) for v in workload.flag("--lambda-grid").split(",")]
    dim = 1 + len(CHANNELS) * int(workload.flag("--basis-q"))

    def run(rs):
        return checks.check_scan(rs, c_grid, lam_grid, dim)

    def swap_nll(rs):
        first, last = rs[0], rs[len(lam_grid) - 1]
        first["nll"], last["nll"] = last["nll"], first["nll"]
        return rs

    def set_field(idx, key, value):
        def apply(rs):
            rs[idx][key] = value
            return rs
        return apply

    return run, rows, [
        ("nll of smallest and largest lambda swapped", swap_nll, "nll fell"),
        ("trace term zero", set_field(4, "trace_term", "0.0"), "trace term"),
        ("trace term above dim", set_field(4, "trace_term", str(dim + 1.0)), "trace term"),
        ("cell missing", lambda rs: rs[:-1], "no row"),
        ("cell nll infinite", set_field(2, "nll", "inf"), "nll inf"),
    ]


def _cv_cases(trials, rows):
    def run(rs):
        return checks.check_cv(trials, rs, TARGET)

    def raise_train(rs):
        bound = checks.intercept_only_nll(trials[1:], TARGET)
        rs[0]["train_nll"] = repr(bound + 1e-3)
        return rs

    def set_val(rs):
        rs[3]["val_nll"] = "nan"
        return rs

    return run, rows, [
        ("train nll above the starting value", raise_train, "above the starting value"),
        ("val nll not finite", set_val, "val nll"),
        ("fold missing", lambda rs: rs[1:], "no row"),
    ]


def run_cases(label, run, real, cases) -> int:
    """Number of failures: a real output flagged, or a perturbation missed."""
    bad = 0
    problems = run(copy.deepcopy(real))
    print(f"{'ok  ' if not problems else 'FAIL'} {label}: real output passes {problems or ''}")
    bad += bool(problems)
    for name, perturb, expect in cases:
        caught = [msg for _, msg in run(perturb(copy.deepcopy(real))) if expect in msg]
        print(f"{'ok  ' if caught else 'FAIL'} {label}: {name} -> {caught[0] if caught else 'not detected'}")
        bad += not caught
    return bad


def main() -> int:
    bad = 0
    for counts, expect_ok in (({"numpy:x": 1, "scipy:y": 1}, True), ({"numpy:x": 1, "scipy:y": 2}, False), ({}, False)):
        ok = (envinfo.pinning_problem(counts) is None) == expect_ok
        print(f"{'ok  ' if ok else 'FAIL'} BLAS read-back {counts} {'accepted' if expect_ok else 'refused'}")
        bad += not ok
    for name, workload in WORKLOADS.items():
        work = WORK / "selftest" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        child = Child(work, traced=False)
        events, out = work / "events.json", work / "out"
        if child.run(workload.simulate_args(SEED, 0, events))["exit"] != 0:
            print(f"FAIL {name}: simulate failed")
            return 1
        code = child.run(workload.command_args(events, out))["exit"]
        trials = checks.read_events(events)
        bad += run_cases(f"{name} events", *_events_cases(trials, workload.horizon))
        if code not in (0, 2):
            print(f"FAIL {name}: {workload.command} exited with code {code}")
            bad += 1
            continue
        base_n = int(workload.flag("--grid-n"))
        if workload.command == "fit":
            bad += run_cases(name, *_fit_cases(trials, checks.read_fit(out, CHANNELS), base_n))
        elif workload.command == "tic-scan":
            bad += run_cases(name, *_scan_cases(checks.read_table(out / "tic_table.csv"), workload))
        else:
            rows = [r for r in checks.read_table(out / "cv.csv") if r["holdout"] != "mean"]
            bad += run_cases(name, *_cv_cases(trials, rows))
    print("self-test passed" if not bad else f"self-test: {bad} failure(s)")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
