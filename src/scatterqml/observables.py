"""Densities and entanglement entropies of particle-number sector states.

Every function takes the state's ``Sector`` and the vector of its amplitudes.
"""

from __future__ import annotations

import numpy as np


class ObservableError(ValueError):
    pass


def _check(sector, state):
    if np.shape(state) != (sector.dimension,):
        raise ObservableError(
            f"state of shape {np.shape(state)} does not match the sector dimension "
            f"{sector.dimension}"
        )


def site_densities(sector, state: np.ndarray) -> np.ndarray:
    """Occupation <xi_n^dag xi_n> per site."""
    _check(sector, state)
    return sector.occupations @ (np.abs(state) ** 2)


def excess_density(sector, state: np.ndarray, vacuum: np.ndarray) -> np.ndarray:
    """Local fermion density relative to the vacuum."""
    return site_densities(sector, state) - site_densities(sector, vacuum)


def entanglement_entropy(sector, state: np.ndarray, cut: int) -> float:
    """Bipartite entropy of sites {0..cut-1} via Schmidt (singular) values.

    The Schmidt matrix is block-diagonal in the particle number of the left
    sites, so the singular values come from small SVDs of its blocks.
    """
    _check(sector, state)
    if not 1 <= cut <= sector.sites - 1:
        raise ObservableError(f"cut must be in [1, {sector.sites - 1}], got {cut}")
    svals = np.concatenate(
        [
            np.linalg.svd(state[ranks], compute_uv=False).ravel()
            for ranks in sector.schmidt_blocks(cut)
        ]
    )
    p = svals**2
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log(p)))


def excess_entropy(sector, state: np.ndarray, vacuum: np.ndarray, cut: int) -> float:
    """S_cut(state) - S_cut(vacuum); may be negative."""
    return entanglement_entropy(sector, state, cut) - entanglement_entropy(sector, vacuum, cut)
