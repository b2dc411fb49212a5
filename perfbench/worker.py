"""Run one workload in this interpreter and print its raw results as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        (--seconds S [--min-ops M] | --ops K) [--imports I] [--spans FILE]

With ``--seconds`` whole rounds run until the ops have taken S seconds
of measured time and at least M ops are done; with ``--ops`` exactly K
ops run.  Each op is timed on its own and its output is checked after
the timer stops; then a fixed piece of reference work is timed (see
``time_reference``).  ``--imports`` times I imports of the library,
each in a fresh interpreter, between ops and spread over the S seconds
(with ``--ops``, after the last op).  ``run.py`` starts one worker per
measurement, so the library's process-wide caches and the peak memory
belong to that measurement alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import deltacalc, deltacalc.cli; print(time.perf_counter() - t)"
)


def import_library() -> None:
    """Import deltacalc from this checkout's sources, never from elsewhere."""
    if not (SRC / "deltacalc" / "__init__.py").is_file():
        sys.exit(f"error: no deltacalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deltacalc

    if Path(deltacalc.__file__).resolve().parent != SRC / "deltacalc":
        sys.exit(f"error: imported deltacalc from {deltacalc.__file__}, not {SRC}")


def time_import() -> float:
    """Seconds to import deltacalc and deltacalc.cli in a fresh interpreter.

    The worker has imported the library already, so its bytecode is
    written and every timed import reads the same files.
    """
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def time_reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    Like the library's group ring product it multiplies two sparse
    dicts under tuple keys, but it never calls the library, so a change
    to the library does not move it while a change in the host's speed
    does.  ``run.py`` scales the op times by it.
    """
    started = perf_counter()
    left = {(i, j, i - j): i * j - 7 for i in range(20) for j in range(20)}
    right = {(k, -k, 2 * k): 3 - k for k in range(10)}
    product: dict[tuple[int, int, int], int] = {}
    for p, x in left.items():
        for q, y in right.items():
            key = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
            product[key] = product.get(key, 0) + x * y
    return perf_counter() - started


def run_op(workload, op, tracer, index: int) -> tuple[float, str | None]:
    """Time one op; return its time and what went wrong, if anything."""
    if tracer:
        tracer.begin_op(index)
    error = None
    started = perf_counter()
    try:
        result = workload.run(op)
    except Exception:
        error = traceback.format_exc(limit=3)
    elapsed = perf_counter() - started
    if tracer:
        missing = workload.expects(op) - tracer.end_op()
        if error is None and missing:
            error = f"traced names not reached: {sorted(missing)}"
    if error is None:
        try:
            error = workload.check(op, result)
        except Exception:
            error = traceback.format_exc(limit=3)
    return elapsed, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--imports", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.ops is None):
        parser.error("give exactly one of --seconds and --ops")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    latencies, labels, failures, rounds, imports, reference = [], [], [], [], [], []
    measured = 0.0
    for batch in workload.rounds(args.seed):
        rounds.append(0)
        for op in batch:
            elapsed, error = run_op(workload, op, tracer, len(latencies))
            if error is not None:
                failures.append(f"op {len(latencies)} {op}: {error}")
            latencies.append(elapsed)
            reference.append(time_reference())
            labels.append(op.label)
            rounds[-1] += 1
            measured += elapsed
            if len(latencies) == args.ops:
                break
            if args.seconds:
                while len(imports) < args.imports * min(1.0, measured / args.seconds):
                    imports.append(time_import())
        if len(latencies) == args.ops:
            break
        if args.ops is None and measured >= args.seconds and len(latencies) >= args.min_ops:
            break
    while len(imports) < args.imports:
        imports.append(time_import())

    out = {
        "latencies": latencies,
        "labels": labels,
        "rounds": rounds,
        "imports": imports,
        "reference": reference,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        out["counts"] = tracer.counts()
        out["metrics"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
