"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Untraced
runs (--trace 0) print the end-to-end metrics; traced runs (--trace 1) print
the per-layer metrics.  Human-readable lines (environment, every metric with
its unit, failures) come first and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when any correctness check fails.

Set-up (importing the package in a fresh interpreter, input generation,
loading the reference values and a warm-up that finishes lazy
initialisation) is repeated SETUP_REPEATS times and reported as the median.  The
measured phase repeats the workload until the next repetition would end
after --seconds and reports the mean repetition time as wall_s and the work
done per second over all repetitions as throughput_per_s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb():
    """Larger of this process's and its waited-for children's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def import_seconds():
    """Wall time of a fresh interpreter importing the package and its scipy parts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import scatterqml, scipy.linalg, scipy.sparse.linalg"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=env)
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import scatterqml
        import environment
        import measure
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(scatterqml.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: scatterqml imported from {scatterqml.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    table = wl.workloads(OUT_DIR / "gen-data")
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_seconds()
        inputs = workload.inputs(args.seed)
        reference = None
        if args.seed == wl.DEFAULT_SEED:
            reference = json.loads(REFERENCE.read_text())[workload.name]
        workload.warm_up()
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    workers = wl.nproc() if workload.measure_pooled else 1
    pool_workers = wl.nproc() if workload.pooled else 1
    env = environment.describe(
        ROOT, workers=pool_workers if args.trace else workers, seed=args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    tally = wl.Tally()
    if args.trace:
        metrics, trace_record, output = measure.traced(
            workload, inputs, pool_workers, args.seconds, tally)
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"environment": env, **trace_record}))
    else:
        metrics, output, times = measure.untraced(
            workload, inputs, workers, args.seconds, tally)
        print(f"repetitions {len(times)}, wall s: " + " ".join(f"{t:.4f}" for t in times))
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    wl.check_probe(workload.probe(inputs), tally, reference and reference.get("probe"))
    if reference is not None:
        workload.compare(output, reference["output"], tally)

    for problem in tally.problems:
        print(f"check failed: {problem}")
    failed_frac = tally.failed / max(tally.attempted, 1)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value!r} {unit}")
    if not args.trace:
        alias = "events_per_s" if workload.unit == "events" else "samples_per_s"
        print(f"metric {alias} = {metrics['throughput_per_s'][0]!r} 1/s")
        print(f"metric failed_frac = {failed_frac!r} 1 ({tally.failed} of {tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
