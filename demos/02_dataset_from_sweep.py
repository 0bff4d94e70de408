"""From trajectories to a classification dataset.

Runs a reduced parameter sweep (a coarse version of the desk-scale default),
labels each event by whether its central excess entropy at the separation
time exceeds the median, and builds the balanced, PCA-reduced, angle-scaled
dataset the classifiers consume.
"""

import numpy as np

from scatterqml import SweepConfig, build_dataset, run_sweep


def main():
    config = SweepConfig(
        masses=(0.2, 0.3, 0.6, 0.8),
        couplings=(0.5, 0.6, 0.7, 0.8),
        fermion_momenta=(0.9,),
        antifermion_momenta=(-0.9,),
        sites=12,
    )
    print(f"running {len(config.grid())} trajectories at N={config.sites}...")
    events = run_sweep(config)

    entropies = np.array([e.delta_s_mid for e in events])
    print(f"\ncentral excess entropies: min {entropies.min():.3f}, "
          f"median {np.median(entropies):.3f}, max {entropies.max():.3f}")
    print("per (mass, coupling):")
    for ev in events[:: len(config.couplings)]:
        m = ev.parameters["mass"]
        row = [e.delta_s_mid for e in events if e.parameters["mass"] == m]
        print(f"  m={m:.1f}: " + " ".join(f"{s:.2f}" for s in row))

    dataset = build_dataset(events, 4)  # the 4-qubit models' input width
    X_train, y_train = dataset.train
    X_test, y_test = dataset.test
    print(f"\nthreshold (median): {dataset.threshold:.4f}")
    print(f"train rows: {len(y_train)}  test rows: {len(y_test)}  "
          f"class balance: {y_train.mean():.2f}")
    total = dataset.pca.explained_variance.sum()
    print("PCA explained variance (top 4, relative to the kept components):")
    for i, v in enumerate(dataset.pca.explained_variance):
        print(f"  component {i}: {v / total:.2%}")
    print(f"feature range: [{X_train.min():.3f}, {X_train.max():.3f}] radians")


if __name__ == "__main__":
    main()
