"""Measured phases: repeated untraced runs, and the traced per-layer run."""

from __future__ import annotations

import statistics
import time

from spans import Tracer

# Pool entry points timed (one span per call) in otherwise untraced runs,
# and their span names by the layer whose pool efficiency they give.
POOL_CALLS = ("dataset.run_sweep", "train.run_experiment")
POOL_SPANS = {"dataset": ("sweep_serial", "sweep_pooled"), "train": ("experiment",)}


def repeat(workload, inputs, workers, seconds, tally, first=None, run=None):
    """Run until the next repetition would end after `seconds` (at least once).

    Checks every output, and every output must equal the first exactly.
    Returns (repetition wall times, first output).
    """
    run = run or workload.run
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        output = run(inputs, workers)
        times.append(time.perf_counter() - t0)
        workload.check(inputs, output, tally)
        if first is None:
            first = output
        else:
            tally.expect(workload.same(first, output), "output differs between repetitions")
    return times, first


def untraced(workload, inputs, workers, seconds, tally):
    """End-to-end timings; returns (metrics, first output, repetition times).

    wall_s is the mean repetition time, not the median: with the default
    BLAS threading the repetition times of the pooled and the training
    workloads are bimodal, and a median of ten or so jumps between the modes
    from run to run while the mean stays put.
    """
    times, first = repeat(workload, inputs, workers, seconds, tally)
    wall = sum(times) / len(times)
    metrics = {
        "wall_s": (wall, "s"),
        "throughput_per_s": (workload.work(inputs) / wall, "1/s"),
    }
    return metrics, first, times


def _pool_time(tracer):
    return {
        layer: sum(sum(tracer.durations(name)) for name in names)
        for layer, names in POOL_SPANS.items()
    }


def _once(workload, inputs, workers, tally, first, tracer, root=False):
    def run(inp, n):
        with tracer:
            if root:
                return tracer.run("workload", "other_s", workload.run, inp, n)
            return workload.run(inp, n)

    times, first = repeat(workload, inputs, workers, 0, tally, first, run=run)
    return times[0], first


def traced(workload, inputs, workers, seconds, tally):
    """Per-layer metrics; returns (metrics, trace record, first output).

    Spans cannot follow work into pool workers, so the traced repetition
    runs with one worker.  It doubles as the single-process baseline of the
    pooled problem: pool efficiency is the traced serial pool-call time over
    workers x the untraced pooled pool-call time.  Tracing overhead is the
    traced serial wall minus the untraced serial wall.  Each cycle runs the
    untraced pooled repetition (pooled workloads only), the untraced serial
    one and the traced one; per-layer values come from the cycle with the
    median traced wall.
    """
    cycles, first = [], None
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start + statistics.median(
        c["cycle_s"] for c in cycles
    ) <= seconds:
        t0 = time.perf_counter()
        cycle = {}
        if workers > 1:
            timer = Tracer(only=POOL_CALLS)
            _, first = _once(workload, inputs, workers, tally, first, timer)
            cycle["pool_time"] = _pool_time(timer)
        timer = Tracer(only=POOL_CALLS)
        cycle["untraced_s"], first = _once(workload, inputs, 1, tally, first, timer)
        cycle.setdefault("pool_time", _pool_time(timer))
        tracer = Tracer()
        _, first = _once(workload, inputs, 1, tally, first, tracer, root=True)
        cycle["traced_s"] = tracer.durations("workload")[0]
        cycle["tracer"] = tracer
        cycle["serial_time"] = _pool_time(tracer)
        cycle["cycle_s"] = time.perf_counter() - t0
        cycles.append(cycle)

    chosen = sorted(cycles, key=lambda c: c["traced_s"])[(len(cycles) - 1) // 2]
    tracer = chosen["tracer"]
    self_times = tracer.self_times()
    metrics = {name: (value, "s") for name, value in self_times.items()}
    counts, maxima = tracer.counts, tracer.maxima
    runs, steps = counts["train.runs"], counts["evolution.steps"]
    events_bytes = len(first["bytes"]) if isinstance(first, dict) and "bytes" in first else 0
    metrics.update({
        "lattice.state_dim": (maxima["lattice.state_dim"], "count"),
        "evolution.steps": (steps, "count"),
        "evolution.matvecs": (counts["evolution.matvecs"], "count"),
        "evolution.matvecs_per_step": (
            counts["evolution.matvecs"] / steps if steps else 0.0, "count"),
        "observables.entropy_calls": (counts["observables.entropy_calls"], "count"),
        "serialize.events_bytes": (events_bytes, "bytes"),
        "circuits.apply_calls": (counts["circuits.apply_calls"], "count"),
        "circuits.state_bytes": (maxima["circuits.state_bytes"], "bytes"),
        "qcnn.gradient_calls": (counts["qcnn.gradient_calls"], "count"),
        "train.runs": (runs, "count"),
        "train.run_s": (self_times["train.self_s"] / runs if runs else 0.0, "s"),
        "trace.wall_s": (chosen["traced_s"], "s"),
        "trace.untraced_wall_s": (chosen["untraced_s"], "s"),
        "trace.overhead_s": (chosen["traced_s"] - chosen["untraced_s"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    for layer in POOL_SPANS:
        serial = statistics.median(c["serial_time"][layer] for c in cycles)
        pooled = statistics.median(c["pool_time"][layer] for c in cycles)
        metrics[f"{layer}.pool_efficiency"] = (
            serial / (workers * pooled) if pooled else 0.0, "ratio")
    record = tracer.dump()
    record["self_times"] = self_times
    return metrics, record, first
