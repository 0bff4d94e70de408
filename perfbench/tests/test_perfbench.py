"""Tests of the benchmark itself: seeded inputs, output format, correctness gate.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import measure  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SELF_TIME_METRICS, Tracer  # noqa: E402

from scatterqml.dataset import SweepConfig, run_sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    return wl.workloads(tmp_path_factory.mktemp("gen-data"))


def _datasets(inputs):
    if isinstance(inputs, dict) and "datasets" in inputs:
        return list(inputs["datasets"].values())
    if isinstance(inputs, dict) and "dataset" in inputs:
        return [inputs["dataset"]]
    return []


def _same_inputs(a, b):
    if isinstance(a, SweepConfig):
        return a == b
    if isinstance(a, dict) and "masses" in a:
        return a == b
    pairs = list(zip(_datasets(a), _datasets(b)))
    return all(
        np.array_equal(x.features, y.features) and np.array_equal(x.labels, y.labels)
        and np.array_equal(x.train_idx, y.train_idx)
        for x, y in pairs
    )


def test_workload_names_match_benchmark_json(table):
    assert sorted(table) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", ["gen-data-n12", "sweep-n14-serial", "experiment-pool",
                                  "qcnn16-step"])
def test_same_seed_same_inputs_other_seed_other_inputs(table, name):
    workload = table[name]
    assert _same_inputs(workload.inputs(7), workload.inputs(7))
    assert not _same_inputs(workload.inputs(7), workload.inputs(8))


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
def test_synthetic_datasets_balanced_and_in_range(table, seed):
    for name in ("experiment-pool", "qcnn16-step"):
        for data in _datasets(table[name].inputs(seed)):
            assert np.all((data.features >= 0) & (data.features <= np.pi))
            for split in (data.train_idx, data.test_idx):
                labels = data.labels[split]
                assert labels.sum() * 2 == labels.size
            assert np.intersect1d(data.train_idx, data.test_idx).size == 0


def test_drawn_grids_lie_on_the_desk_bands(table):
    for seed in range(5):
        grid = table["gen-data-n12"].inputs(seed)
        assert sum(m in wl.LIGHT_MASSES for m in grid["masses"]) == 2
        assert sum(m in wl.HEAVY_MASSES for m in grid["masses"]) == 2
        assert all(g in wl.COUPLINGS for g in grid["couplings"])
        config = table["sweep-n14-serial"].inputs(seed)
        assert config.sites == 14 and len(config.grid()) == 2


@pytest.fixture(scope="module")
def tiny_events():
    events = run_sweep(wl.tiny_sweep_config(), workers=1)
    assert all(ev.error is None for ev in events)
    return events


def test_gate_flags_a_corrupted_event(tiny_events):
    tally = wl.Tally()
    wl.check_events(tiny_events, tally)
    assert tally.failed == 0 and tally.attempted == len(tiny_events)

    event = tiny_events[0]
    reference = wl.event_summary(tiny_events)
    corrupted = type(event)(**{**event.__dict__, "density_image": event.density_image.copy()})
    corrupted.density_image[3, 2] += 1e-6
    tally = wl.Tally()
    wl.check_events([corrupted], tally)
    wl.compare_events([corrupted], reference, tally)
    assert tally.failed == 2


def test_gate_flags_a_perturbed_gradient(monkeypatch):
    data = wl.synthetic_dataset(np.random.default_rng(3), 4, 8, 2)
    probe = {"qcnn4-hee": wl.probe_classifier("qcnn4-hee", data, seed=5, rows=4)}
    tally = wl.Tally()
    wl.check_probe(probe, tally, reference=probe)
    assert tally.failed == 0

    exact = wl.training.adjoint_gradient

    def perturbed(model, states, labels):
        grad = exact(model, states, labels)
        grad[0] += 1e-3
        return grad

    monkeypatch.setattr(wl.training, "adjoint_gradient", perturbed)
    bad = {"qcnn4-hee": wl.probe_classifier("qcnn4-hee", data, seed=5, rows=4)}
    tally = wl.Tally()
    wl.check_probe(bad, tally, reference=probe)
    assert tally.failed == 2  # finite differences and the reference gradient


def test_tracer_restores_the_package_and_self_times_add_up(tiny_events):
    import scatterqml.dataset as dataset

    original = dataset.trajectory
    tracer = Tracer()
    with tracer:
        events = tracer.run(
            "workload", "other_s", dataset.run_sweep, wl.tiny_sweep_config(), 1)
    assert dataset.trajectory is original
    assert wl.same_events(events, tiny_events)
    totals = tracer.self_times()
    assert set(totals) == set(SELF_TIME_METRICS) | {"other_s"}
    wall = tracer.durations("workload")[0]
    assert sum(totals.values()) == pytest.approx(wall, rel=1e-9)
    assert tracer.counts["evolution.steps"] == 8
    assert tracer.counts["observables.entropy_calls"] == 7 * (8 + 1)  # cuts x (vacuum + steps)
    assert tracer.maxima["lattice.state_dim"] == 256
    assert tracer.durations("sweep_serial") and tracer.durations("krylov_step")


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_name_and_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment-pool", "--seed", "4",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {
        line.split()[1]: line.split()[4]
        for line in proc.stdout.splitlines() if line.startswith("metric ")
    }
    assert {k: printed[k] for k in expected} == expected
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(metrics[m] for m in SELF_TIME_METRICS) + metrics["other_s"]
        assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    else:
        assert "metric samples_per_s = " in proc.stdout
        assert "metric failed_frac = 0.0 " in proc.stdout


def test_exit_code_is_nonzero_when_the_gate_trips(monkeypatch, capsys):
    exact = wl.training.adjoint_gradient

    def perturbed(model, states, labels):
        return exact(model, states, labels) + 1e-3

    monkeypatch.setattr(wl.training, "adjoint_gradient", perturbed)
    assert run.main(["--workload", "experiment-pool", "--seed", "4", "--seconds", "0"]) == 1
    result = _result(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "gen-data-n12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_measure_repeats_at_least_once(table):
    class Counting(wl.Workload):
        calls = 0

        def run(self, inputs, workers):
            Counting.calls += 1
            return Counting.calls

        def check(self, inputs, output, tally):
            tally.expect(True, "")

        def same(self, a, b):
            return True

    times, first = measure.repeat(Counting(), None, 1, 0, wl.Tally())
    assert len(times) == 1 and first == 1
