"""End-to-end and per-layer benchmark of the ppfilt commands fit, tic-scan and cv.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

One run first generates each of its datasets with its own `ppfilt simulate`
child (the set-up), then runs whole rounds, each running the workload's
command once on every dataset; it starts another round only while that
round is expected to end within S seconds, so a run has at least one round.
Every command runs in a fresh child process with one BLAS thread, from the
checkout's `src/`, and its outputs are checked against quantities computed
in perfbench/checks.py.  With --trace 0 the children are plain
`python3 -m ppfilt.cli` and the run reports the end-to-end metrics; with
--trace 1 they run under perfbench/spans.py and the run reports the
per-layer metrics.  Metric names and units are those of BENCHMARK.json.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  --all runs every workload untraced and then traced and
prints a table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import envinfo
import spans
from workloads import BASELINE, BRANCHING, CHANNELS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs"


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Refused(RuntimeError):
    """The run cannot produce trustworthy numbers; no result is printed."""


class Child:
    """Runs ppfilt commands in fresh processes, plain or under the span tracer."""

    def __init__(self, work: Path, traced: bool) -> None:
        self.work = work
        self.traced = traced
        self.env = dict(os.environ, **envinfo.SINGLE_THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
        )
        self.count = 0

    def run(self, args: list[str]) -> dict:
        """Exit code, wall seconds, peak RSS (MiB) and, when traced, the span record."""
        self.count += 1
        tag = f"{self.count:04d}"
        span_file = self.work / f"spans_{tag}.json"
        if self.traced:
            argv = [sys.executable, str(HERE / "spans.py"), str(span_file), *args]
        else:
            argv = [sys.executable, "-m", "ppfilt.cli", *args]
        with (self.work / f"child_{tag}.log").open("wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"exit": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if self.traced:
            if not span_file.exists():
                raise Refused(f"traced child wrote no spans (exit {proc.returncode}); see {log.name}")
            doc = json.loads(span_file.read_text())
            problem = envinfo.pinning_problem(doc["blas_threads"])
            if problem:
                raise Refused(problem)
            out["layers"] = spans.layer_metrics(doc)
            out["blas_threads"] = doc["blas_threads"]
            span_file.unlink()
        return out


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    if not (ROOT / "src" / "ppfilt" / "cli.py").is_file():
        raise Refused(f"no ppfilt sources under {ROOT / 'src'}")
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child = Child(work, traced)

    # set-up: one cold `ppfilt simulate` child per dataset
    datasets, setups = [], []
    for k in range(workload.datasets):
        path = work / f"events_{k}.json"
        sim = child.run(workload.simulate_args(seed, k, path))
        if sim["exit"] != 0:
            raise Refused(f"ppfilt simulate exited with code {sim['exit']}")
        setups.append(sim)
        trials = checks.read_events(path)
        problems = checks.check_events(trials, CHANNELS, workload.horizon, BASELINE, BRANCHING)
        datasets.append({"path": path, "trials": trials, "problems": problems})

    rounds = []
    measure_start = time.perf_counter()
    while True:
        commands = []
        for k, ds in enumerate(datasets):
            out_dir = work / f"out_{k}"
            shutil.rmtree(out_dir, ignore_errors=True)
            res = child.run(workload.command_args(ds["path"], out_dir))
            try:
                problems, not_converged = workload.verdict(ds["trials"], out_dir, res["exit"])
            except (OSError, KeyError, ValueError) as exc:
                problems, not_converged = [(None, f"unreadable output: {exc!r}")], 0
            problems = ds["problems"] + problems
            bad = {i for i, _ in problems}
            failed = workload.fits if None in bad else len(bad)
            commands.append({**res, "failed": failed, "not_converged": not_converged,
                             "problems": [msg for _, msg in problems]})
        rounds.append(commands)
        elapsed = time.perf_counter() - measure_start
        if elapsed + elapsed / len(rounds) > seconds:
            break

    def per_round(value):
        return statistics.median(statistics.fmean(value(c) for c in rnd) for rnd in rounds)

    if traced:
        units = declared_units("per_layer")
        metrics = {
            name: per_round(lambda c, name=name: c["layers"][name])
            for name in units if name not in ("optimize.unconverged_fits", "simulate.trials_s")
        }
        metrics["optimize.unconverged_fits"] = per_round(lambda c: c["not_converged"])
        metrics["simulate.trials_s"] = statistics.fmean(s["layers"]["simulate.trials_s"] for s in setups)
    else:
        units = declared_units("end_to_end")
        metrics = {
            "wall_s": per_round(lambda c: c["wall_s"]),
            "peak_rss_mb": per_round(lambda c: c["peak_rss_mb"]),
            "setup_s": statistics.fmean(s["wall_s"] for s in setups),
        }
    all_commands = [c for rnd in rounds for c in rnd]
    return {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "environment": {**envinfo.versions(), **envinfo.SINGLE_THREAD_ENV,
                        "blas_threads": setups[0].get("blas_threads")},
        "rounds": len(rounds),
        "command_wall_s": per_round(lambda c: c["wall_s"]),
        "datasets": len(datasets),
        "attempted": workload.fits * len(all_commands),
        "failed": sum(c["failed"] for c in all_commands),
        "not_converged": sum(c["not_converged"] for c in all_commands),
        "problems": sorted({m for c in all_commands for m in c["problems"]}),
        "commands": [{k: c[k] for k in ("exit", "wall_s", "peak_rss_mb", "failed", "not_converged")}
                     for c in all_commands],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def result_file(workload: str, trace: int) -> Path:
    return WORK / f"result_{workload}_trace{trace}.json"


def summary_line(result: dict) -> str:
    """The result line: correct, attempted, failed, metrics."""
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced and then traced, each in its own process; prints a table."""
    table = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            table[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in WORKLOADS:
        e2e, layers = table[name, 0], table[name, 1]
        print(f"== {name}  (seed {seed}, {seconds} s per run)")
        walls = [json.loads(result_file(name, t).read_text())["command_wall_s"] for t in (0, 1)]
        print(f"   fits attempted {e2e['attempted']}, failed {e2e['failed']}, "
              f"outputs correct {e2e['correct']}; traced wall {walls[1]:.3f} s, "
              f"tracing overhead {walls[1] - walls[0]:+.3f} s")
        for part in (e2e, layers):
            for metric, m in part["metrics"].items():
                print(f"   {metric:30s} {m['value']:14.6g} {m['unit']}")
    ok = all(r["correct"] for r in table.values())
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or bool(args.all) == bool(args.workload):
        parser.error("give --workload or --all, a seed >= 0 and --seconds >= 1")
    if args.all:
        return run_all(args.seed, args.seconds)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    result_file(args.workload, args.trace).write_text(json.dumps(result, indent=1))
    print("environment: " + json.dumps(result["environment"]))
    print(f"{result['workload']}: {result['rounds']} round(s) x {result['datasets']} dataset(s); "
          f"fits attempted {result['attempted']}, failed {result['failed']}, "
          f"not converged {result['not_converged']}; "
          f"command wall {result['command_wall_s']:.3f} s{' (traced)' if result['traced'] else ''}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
