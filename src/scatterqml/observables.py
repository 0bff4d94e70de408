"""Densities and entanglement entropies of particle-number sector states.

Every function takes the state's ``Sector`` and either one state, the vector
of its amplitudes of shape ``(dimension,)``, or a stack of states of shape
``(T, dimension)``, and returns one value or row per state.  Entropies come
from the Gram eigenvalues of the Schmidt blocks, batched over a chunk of
times.
"""

from __future__ import annotations

import numpy as np


class ObservableError(ValueError):
    pass


def _check(sector, states):
    shape = np.shape(states)
    if len(shape) not in (1, 2) or shape[-1] != sector.dimension:
        raise ObservableError(
            f"states of shape {shape} are neither (dimension,) nor (T, dimension) "
            f"for the sector dimension {sector.dimension}"
        )


def site_densities(sector, states: np.ndarray) -> np.ndarray:
    """Occupation <xi_n^dag xi_n> per site: shape (sites,) or (T, sites)."""
    _check(sector, states)
    return (np.abs(states) ** 2) @ sector.occupations.T


def excess_density(sector, state: np.ndarray, vacuum: np.ndarray) -> np.ndarray:
    """Local fermion density relative to the vacuum."""
    return site_densities(sector, state) - site_densities(sector, vacuum)


def entanglement_entropy(sector, states: np.ndarray, cut: int):
    """Bipartite entropy of sites {0..cut-1}: a float, or shape (T,) for a stack.

    The Schmidt matrix is block-diagonal in the particle number of the left
    sites.  For each block M (no more rows than columns) the eigenvalues of
    the Gram matrix M M^dag are the Schmidt probabilities; one batched
    product and one batched ``eigvalsh`` serve every block of a shape and
    every state of the stack.  Probabilities at or below 1e-14 contribute
    zero.
    """
    _check(sector, states)
    if not 1 <= cut <= sector.sites - 1:
        raise ObservableError(f"cut must be in [1, {sector.sites - 1}], got {cut}")
    stack = np.atleast_2d(states)
    probs = []
    for grids in sector.schmidt_blocks(cut):
        blocks = stack[:, grids]  # (T, blocks, rows, cols)
        gram = blocks @ blocks.conj().swapaxes(-1, -2)
        probs.append(np.linalg.eigvalsh(gram).reshape(len(stack), -1))
    p = np.concatenate(probs, axis=1)
    log_p = np.zeros_like(p)
    np.log(p, out=log_p, where=p > 1e-14)
    entropies = -np.sum(p * log_p, axis=1)
    return float(entropies[0]) if np.ndim(states) == 1 else entropies


def excess_entropy(sector, state: np.ndarray, vacuum: np.ndarray, cut: int):
    """S_cut(state) - S_cut(vacuum), per state for a stack; may be negative."""
    return entanglement_entropy(sector, state, cut) - entanglement_entropy(sector, vacuum, cut)
