"""Quantum circuit classifier versus classical baseline.

Builds a dataset from a reduced sweep and trains the 4-qubit
hardware-efficient-encoded circuit model against the 51-parameter CNN over a
handful of seeds, printing the mean test-accuracy trajectory of each and the
final-epoch mean and SEM that `scatterqml report` prints for a runs.csv.  The
full-scale comparison (50 runs on the 210-event desk sweep) is what the
acceptance suite checks; this is a two-minute preview.
"""

from scatterqml import SweepConfig, TrainConfig, build_dataset, run_sweep, run_experiment
from scatterqml.train import summarize


def main():
    config = SweepConfig(
        masses=(0.2, 0.25, 0.3, 0.6, 0.7, 0.8),
        couplings=(0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8),
        fermion_momenta=(0.9,),
        antifermion_momenta=(-0.9,),
        sites=12,
    )
    print(f"running {len(config.grid())} trajectories...")
    events = run_sweep(config)
    dataset = build_dataset(events, 4)  # the input width of both models
    print(f"dataset: {dataset.labels.size} events, threshold {dataset.threshold:.3f}\n")

    for name in ("qcnn4-hee", "cnn51"):
        report = run_experiment(
            dataset, TrainConfig(model=name, epochs=30, runs=5, batch_size=16)
        )
        curve = report.mean_test_accuracy
        marks = "  ".join(
            f"e{e + 1}:{curve[e]:.3f}" for e in (0, 4, 9, 19, 29)
        )
        final = summarize(report.rows())[name]
        print(f"{name:>10}: {marks}")
        print(f"{'':>10}  final mean {final.mean:.4f} "
              f"(SEM {final.sem:.4f}, {final.runs} runs)")


if __name__ == "__main__":
    main()
