"""Paired parent/change runs of the benchmark, summarized into one BENCH json file.

For every workload and seed, runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

once in the parent checkout and once in the change checkout, the parent
first on even seeds and the change first on odd ones, so slow drift of the
machine falls on both sides alike.  The output records, per workload and
metric, each seed's pair of values, each side's median and q1-q3, and the
number of pairs the change wins (the direction of "better" comes from
BENCHMARK.json), together with each side's correctness and failure counts.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload cv-direct --seeds 11-20 --seconds 30 --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    """Median with q1 and q3 (inclusive method); one value is its own quartiles."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of one workload's pairs.

    Each pair is {"seed", "parent", "change"}, a side being the result line
    of perfbench/run.py (correct, attempted, failed, metrics).  ``better``
    maps a metric name to "lower" or "higher"; the change wins a pair when
    its value is strictly better.  ``gap_exceeds_parent_spread`` says whether
    the medians differ, in the change's favour, by more than the parent's
    q1-q3 distance.
    """
    out = {
        "seeds": [p["seed"] for p in pairs],
        "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: [p[s]["attempted"] for p in pairs] for s in SIDES},
        "metrics": {},
    }
    for name in pairs[0]["parent"]["metrics"]:
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        stats = {s: {"values": values[s], **quartiles(values[s])} for s in SIDES}
        gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
        out["metrics"][name] = {
            **stats,
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": "lower" if sign > 0 else "higher",
            "change_wins": sum(
                sign * (a - b) > 0 for a, b in zip(values["parent"], values["change"])
            ),
            "pairs": len(pairs),
            "gap_exceeds_parent_spread": gain > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one untraced perfbench run in checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or LO-HI")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {args.seconds} --trace 0",
        "order": "parent first on even seeds, change first on odd seeds",
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for seed in args.seeds:
            sides = SIDES if seed % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed}
            for side in sides:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{s} wall_s {pair[s]['metrics']['wall_s']['value']:.3f}" for s in SIDES
            ), flush=True)
        report["workloads"][workload] = summarize(pairs, better)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{workload:16s} {name:12s} {m['parent']['median']:10.4g} -> "
                  f"{m['change']['median']:10.4g} {m['unit']:3s} "
                  f"change wins {m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
