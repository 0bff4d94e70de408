"""Record the reference outputs that default-seed runs are compared against.

    python3 perfbench/record_reference.py

Runs every workload once on its DEFAULT_SEED inputs with one worker and
writes perfbench/reference.json.  Re-record only when a change is meant to
alter the physics or the models' results, and say so with the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402


def main() -> int:
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    reference = {}
    for name, workload in wl.workloads(out_dir / "gen-data").items():
        inputs = workload.inputs(wl.DEFAULT_SEED)
        output = workload.run(inputs, 1)
        tally = wl.Tally()
        workload.check(inputs, output, tally)
        if tally.failed:
            print(f"{name}: {tally.problems}", file=sys.stderr)
            return 1
        reference[name] = {"output": workload.summary(output), "probe": workload.probe(inputs)}
        print(f"recorded {name}")
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
