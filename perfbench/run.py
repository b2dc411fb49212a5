"""deltacalc benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload degree|expand|verify --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports deltacalc from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table,
including the error rate and the sample count, goes to standard error.
Metric names and units are those declared in ``BENCHMARK.json``.

Workloads (see ``workloads.py``):

* ``degree``: ``deltacalc.cli.run(["fdeg", ...])`` on seeded expressions;
  the polyfract and fdeg layers do the work.
* ``expand``: ``expand_word_grouped`` on seeded words; the group ring
  and expansion layers do the work.
* ``verify``: ``verify_identity`` over all 20 ids at acceptance trial
  counts, one sweep per round at consecutive seeds; evaluation rather
  than construction.

``--trace 0`` runs the workload untraced in a fresh interpreter until
its ops have taken S seconds and at least 100 ops are done, ending on a
round boundary, and reports throughput, latency, peak memory and the
import time of the library (the fastest of several fresh interpreters
started between ops, see ``worker.py``).  Op times are given at a
reference host speed; see ``host_scale``.

``--trace 1`` runs the workload untraced for S/4 seconds (at least one
round), then runs the same ops twice more with every layer's public
functions wrapped (``tracing.py``), each in a fresh interpreter.  It
reports the per-layer counts and self times of the first traced run,
fails if the two traced runs disagree on any count, and writes their
spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".bench_out"
WORKLOADS = ("degree", "expand", "verify")

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Fresh-interpreter imports of the library per untraced run.
SETUP_REPEATS = 15
# Everything, workers included, ends within this many seconds.
DEADLINE_S = 170.0
# Seconds the worker's reference work takes at the reference host speed,
# about what it takes on a quiet 2-vCPU VM with Python 3.11.
REFERENCE_S = 0.0015

SUITE_METRIC = re.compile(r"identities\.suite\.(\w+)\.wall_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declared_units(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """Starts each measurement in its own interpreter, within one deadline."""

    def __init__(self):
        self.deadline = monotonic() + DEADLINE_S

    def _python(self, *args: str) -> str:
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                capture_output=True,
                text=True,
                timeout=timeout,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(args)}") from None
        if proc.returncode != 0:
            raise BenchError(f"exit code {proc.returncode}: {proc.stderr.strip()[-3000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"no output: {' '.join(args)}")
        return lines[-1]

    def worker(self, workload: str, seed: int, trace: int, *limits: str) -> dict:
        args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace), *limits]
        return json.loads(self._python(str(HERE / "worker.py"), *args))


def round_rates(latencies: list[float], rounds: list[int]) -> list[float]:
    """Ops per second of each round.  Their median moves less than the
    overall rate when load from elsewhere slows part of a run."""
    rates, start = [], 0
    for size in rounds:
        rates.append(size / sum(latencies[start : start + size]))
        start += size
    return rates


def host_scale(reference: list[float]) -> float:
    """Factor that takes a run's op times to the reference host speed.

    Load from elsewhere on a shared host slows the whole machine, by up
    to a half, in phases of seconds to minutes, so whole runs differ by
    a fifth or more.  The worker times a fixed piece of reference work
    after every op; it slows about twice as much as the library's ops
    do, in log terms.  Running the same ops over and over on a 2-vCPU
    VM, in segments of 10 to 12 s, the spread (standard deviation of
    the log) of the segments' ops_per_s was 0.11, 0.10 and 0.14 on
    degree, expand and verify as measured, 0.04, 0.05 and 0.10 scaled
    by the square root of the reference's slowdown, and 0.09, 0.08 and
    0.16 scaled by the slowdown itself.  Hence the square root.
    """
    return (REFERENCE_S / statistics.median(reference)) ** 0.5


def untraced(runner: Runner, workload: str, seed: int, seconds: float, ops: int | None):
    limits = ["--ops", str(ops)] if ops else ["--seconds", str(seconds), "--min-ops", str(MIN_OPS)]
    raw = runner.worker(workload, seed, 0, *limits, "--imports", str(SETUP_REPEATS))
    scale = host_scale(raw["reference"])
    latencies = [t * scale for t in raw["latencies"]]
    metrics = {
        "ops_per_s": statistics.median(round_rates(latencies, raw["rounds"])),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        # Load from elsewhere on the machine only ever slows an import,
        # so the fastest of imports spread over the run moves far less
        # from run to run than their median does.  Being taken at the
        # quietest moment of the run, it is not scaled.
        "setup_s": min(raw["imports"]),
    }
    print(f"  op times scaled by {scale:.4f} to the reference host speed", file=sys.stderr)
    return metrics, len(latencies), raw["failures"]


def traced(runner: Runner, workload: str, seed: int, seconds: float, ops: int | None):
    limits = ["--ops", str(ops)] if ops else ["--seconds", str(seconds / 4)]
    plain = runner.worker(workload, seed, 0, *limits)
    count = len(plain["latencies"])
    SPANS_DIR.mkdir(exist_ok=True)
    runs = [
        runner.worker(
            workload, seed, 1, "--ops", str(count),
            "--spans", str(SPANS_DIR / f"spans-{workload}-seed{seed}-{n}.jsonl"),
        )
        for n in (1, 2)
    ]
    failures = plain["failures"] + runs[0]["failures"] + runs[1]["failures"]
    differ = sorted(
        key
        for key in runs[0]["counts"].keys() | runs[1]["counts"].keys()
        if runs[0]["counts"].get(key) != runs[1]["counts"].get(key)
    )
    if differ:
        failures.append(f"two traced runs of the same ops disagree on {differ}")

    metrics = dict(runs[0]["metrics"])
    untraced_s = sum(plain["latencies"])
    traced_s = sum(runs[0]["latencies"])
    metrics.update(
        {
            "trace.ops": count,
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    for name in declared_units(1):
        suite = SUITE_METRIC.fullmatch(name)
        if suite:
            times = [
                t for t, label in zip(plain["latencies"], plain["labels"]) if label == suite[1]
            ]
            metrics[name] = statistics.mean(times) if times else 0.0
    return metrics, 3 * count, failures


def measure(workload: str, seed: int, seconds: float, trace: int, ops: int | None = None) -> dict:
    """One benchmark run; ``ops`` fixes the op count instead of the run time."""
    units = declared_units(trace)
    runner = Runner()
    metrics, attempted, failures = (traced if trace else untraced)(
        runner, workload, seed, seconds, ops
    )
    if metrics.keys() != units.keys():
        raise BenchError(
            f"metrics differ from BENCHMARK.json: extra {sorted(metrics.keys() - units.keys())}, "
            f"missing {sorted(units.keys() - metrics.keys())}"
        )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = result.pop("failures")
    for failure in failures[:10]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:48} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    error_rate = result["failed"] / result["attempted"]
    print(
        f"  {'error_rate':48} {error_rate:>16.6g} ({result['failed']} failed of "
        f"{result['attempted']} ops{'' if args.trace else ', all of them latency samples'})",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
