"""Run the benchmark's workloads and record their results in BENCH_<n>.json.

    python3 scripts/bench_json.py --seed 0 --seconds 25 [--label change]
        [--checkout DIR] [--workload NAME ...] [--out BENCH_1.json]

Runs `perfbench/run.py --trace 0` of the checkout (default: this repository)
once per workload (default: all four) and stores the last line of each run,
{"correct", "attempted", "failed", "metrics"}, with its seed under
labels[label].workloads[workload].runs.  The label also keeps the checkout's
commit (with "-dirty" when its tracked files differ from it) and the
environment line of its latest run, and every workload the median of each
metric over its runs.  An existing file is extended, so repeated calls with
two checkouts and alternating labels build one paired comparison.  Without
--out the next free BENCH_<n>.json at the repository root is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gen-data-n12", "sweep-n14-serial", "experiment-pool", "qcnn16-step")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--label", default="change")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path)
    return parser.parse_args(argv)


def next_bench_file(root: Path) -> Path:
    n = 1
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def commit(checkout: Path) -> str:
    """HEAD of the checkout, "-dirty" if its tracked files changed, or
    "unknown" outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(checkout: Path, workload: str, seed: int, seconds: float):
    """The environment line and the last-line JSON of one untraced run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{workload}: no result line (exit {proc.returncode})\n{proc.stderr}")
    env = next((json.loads(line[12:]) for line in lines if line.startswith("environment ")), None)
    return env, result


def medians(runs: list) -> dict:
    names = sorted({name for r in runs for name in r["metrics"]})
    return {
        name: statistics.median(r["metrics"][name]["value"] for r in runs if name in r["metrics"])
        for name in names
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out or next_bench_file(ROOT)
    record = json.loads(out.read_text()) if out.exists() else {"labels": {}}
    entry = record["labels"].setdefault(args.label, {"workloads": {}})
    entry["commit"] = commit(args.checkout)
    for workload in args.workload or WORKLOADS:
        env, result = run(args.checkout, workload, args.seed, args.seconds)
        entry["environment"] = env
        slot = entry["workloads"].setdefault(workload, {"runs": []})
        slot["runs"].append({"seed": args.seed, "seconds": args.seconds, **result})
        slot["median"] = medians(slot["runs"])
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        status = "correct" if result["correct"] else "INCORRECT"
        print(f"{args.label} {workload} seed {args.seed}: {status}, "
              f"throughput_per_s {result['metrics']['throughput_per_s']['value']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
