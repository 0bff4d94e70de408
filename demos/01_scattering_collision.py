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
    excess_density,
    free_modes,
    ground_state,
    prepare_scattering_state,
    trajectory,
)
from scatterqml.dataset import central_excess_entropy, detect_separation_time
from scatterqml.dataset import ScatteringEvent

N, MASS, COUPLING = 12, 0.4, 0.5
TIMES = 0.5 * np.arange(1, 49)

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

    vac_mid = [entanglement_entropy(sector, vacuum, c) for c in (N // 2 - 1, N // 2)]
    density_rows, entropy_rows = [], []
    print("\n  t    excess density (sites 0..11)         dS_mid")
    for t, psi in trajectory(ham, psi0, TIMES):
        d = excess_density(sector, psi, vacuum)
        s_mid = 0.5 * sum(
            entanglement_entropy(sector, psi, c) - v
            for c, v in zip((N // 2 - 1, N // 2), vac_mid)
        )
        density_rows.append(d)
        entropy_rows.append(
            [entanglement_entropy(sector, psi, c) for c in range(1, N)]
        )
        if len(density_rows) % 4 == 0:
            row = "".join(shade(x, -0.35, 0.35) for x in d)
            print(f"{t:5.1f}   [{row}]   {s_mid:6.3f}")

    image = np.array(density_rows)
    event = ScatteringEvent(
        parameters={}, times=TIMES, density_image=image,
        entropy_traces=np.array(entropy_rows),
    )
    t_star = detect_separation_time(image, TIMES, 0.5, N)
    print(f"\nseparation time t* = {t_star}")
    if t_star is not None:
        vac_trace = np.array(
            [entanglement_entropy(sector, vacuum, c) for c in range(1, N)]
        )
        event.entropy_traces = event.entropy_traces - vac_trace
        print(f"central excess entropy at t*: {central_excess_entropy(event, t_star):.4f}")


if __name__ == "__main__":
    main()
