"""A single fermion-antifermion collision, watched in real time.

Prepares two counter-propagating Gaussian wave packets on the interacting
vacuum of a 12-site chain, evolves them through the collision and prints the
excess density as an ASCII space-time diagram together with the excess
entropy of the central cut.  The separation time t* and the central excess
entropy Delta-S_mid are the quantities later used to label events.

States are amplitude vectors over the half-filling sector (``ham.sector``),
924 of the 4096 basis states of 12 sites.
"""

import numpy as np

from scatterqml import (
    LatticeModel,
    WavepacketSpec,
    build_hamiltonian,
    entanglement_entropy,
    free_modes,
    ground_state,
    prepare_scattering_state,
    site_densities,
    trajectory,
)
from scatterqml.dataset import TIME_STEP, central_excess_entropy, separation_row

N, MASS, COUPLING = 12, 0.4, 0.5
TIMES = TIME_STEP * np.arange(1, 49)

SHADES = " .:-=+*#%@"


def shade(x, lo, hi):
    level = int((x - lo) / (hi - lo + 1e-12) * (len(SHADES) - 1))
    return SHADES[max(0, min(level, len(SHADES) - 1))]


def main():
    model = LatticeModel(sites=N, mass=MASS, coupling=COUPLING)
    ham = build_hamiltonian(model)
    sector = ham.sector
    print(f"N={N}, m={MASS}, g={COUPLING}: solving for the vacuum "
          f"in the {sector.dimension}-state half-filling sector...")
    vacuum, e0 = ground_state(ham)
    print(f"vacuum energy E0 = {e0:.6f}")

    fer = WavepacketSpec("fermion", 3.0, 0.9, 0.4)
    anti = WavepacketSpec("antifermion", 9.0, -0.9, 0.4)
    psi0 = prepare_scattering_state(ham, vacuum, free_modes(model), fer, anti)

    vac_density = site_densities(sector, vacuum)  # one density per site
    vac_profile = entanglement_entropy(sector, vacuum)  # one entropy per cut
    density_rows, excess_rows = [], []
    print("\n  t    excess density (sites 0..11)         dS_mid")
    # one stack of states per Krylov basis, up to 16 recorded times each
    for chunk_times, states in trajectory(ham, psi0, TIMES):
        for t, psi in zip(chunk_times, states):
            d = site_densities(sector, psi) - vac_density
            excess = entanglement_entropy(sector, psi) - vac_profile
            density_rows.append(d)
            excess_rows.append(excess)
            if len(density_rows) % 4 == 0:
                row = "".join(shade(x, -0.35, 0.35) for x in d)
                print(f"{t:5.1f}   [{row}]   {central_excess_entropy(excess):6.3f}")

    row = separation_row(np.array(density_rows))
    if row is None:
        print("\nthe packets do not separate within the recorded times")
    else:
        print(f"\nseparation time t* = {TIMES[row]}")
        print(f"central excess entropy at t*: {central_excess_entropy(excess_rows[row]):.4f}")


if __name__ == "__main__":
    main()
