"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 1]
        [--workload NAME ...] [--out perfbench/baseline.json]

For each workload, runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` once, each as its own process, one after another.
Prints every end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) plus the
error rate, and the traced run's layer self times.  With ``--out`` it
writes the same figures as JSON, with the git revision, the Python
version and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_SUMMARY = [
    "group_ring.self_s",
    "polyfract.self_s",
    "expansion.self_s",
    "fdeg.self_s",
    "identities.self_s",
    "cli.self_s",
    "trace.overhead_ratio",
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    report = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "ops_per_run": [r["attempted"] for r in runs],
            "error_rate": failed / attempted,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {},
            "per_layer": {
                name: traced["metrics"][name]["value"] for name in TRACED_SUMMARY
            },
        }
        print(f"{workload}: {attempted} ops over {len(seeds)} runs, error_rate "
              f"{entry['error_rate']:.4g}, correct {entry['correct']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarise(values) | {"unit": runs[0]["metrics"][name]["unit"]}
            entry["end_to_end"][name] = summary
            flag = "" if summary["spread"] < bound / 3 else "  (spread above bound/3)"
            print(
                f"  {name:16} median {summary['median']:12.5g} {summary['unit']:6} "
                f"q1 {summary['q1']:12.5g} q3 {summary['q3']:12.5g} "
                f"spread {summary['spread']:.4f} bound {bound}{flag}"
            )
        for name, value in entry["per_layer"].items():
            print(f"  traced {name:28} {value:.5g}")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
