"""Densities and entanglement entropies of particle-number sector states.

Every function takes the state's ``Sector`` and either one state, the vector
of its amplitudes of shape ``(dimension,)``, or a stack of states of shape
``(T, dimension)``, and returns one value or row per state.

Entropies come as a whole profile, one value per cut, from one pass over a
chunk of times.  The left reduced density matrix of a sector state is
block-diagonal in the particle number of the left sites.  Its blocks are
formed once, at the middle cut h = sites // 2, as batched Gram products of
the Schmidt blocks.  Every cut left of the middle then follows by tracing out
one site at a time, which on ascending ranks is plain slicing (``_plan``).
The cuts right of the middle run the same chain on the site-mirrored state,
from the mirrored cut sites - h - 1.  One batched ``eigvalsh`` per block size
serves every cut and every state of the stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

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


class _Plan(NamedTuple):
    grams: list  # (block key, rank grid (right, left)) at each chain's first cut
    steps: list  # (block key, size k, key with site cut empty, key with it occupied)
    sizes: list  # (k, block keys of size k)
    order: np.ndarray  # block columns sorted by profile column
    starts: np.ndarray  # first sorted block column of each profile column


@functools.lru_cache(maxsize=None)
def _plan(sector) -> _Plan:
    """Block tables of the entropy profile of one sector, built once.

    A block key is (chain, cut, n): chain 0 is the state, chain 1 the
    site-mirrored state, and n the particle number of the left sites
    {0..cut-1}.  The block is the left reduced density matrix restricted to
    those configurations, in ascending order.  Ranks ascend in (right bits,
    left bits), so the states with n left particles form a (right, left) grid
    in row-major order, and their Gram product is the block.  Left
    configurations with site `cut` empty rank below those with it occupied,
    so tracing out that site keeps the leading k x k corner of block n and
    the trailing k x k corner of block n + 1, k = C(cut, n).  Sectors come
    from the cached ``number_sector``, so the cache keeps no extra sector
    alive.
    """
    N, P = sector.sites, sector.particles

    def counts(cut):
        return range(max(0, P - (N - cut)), min(cut, P) + 1)

    grams, steps, blocks = [], [], []
    for chain, (top, ranks) in enumerate(
        [(N // 2, np.arange(sector.dimension)), (N - N // 2 - 1, sector.mirror)]
    ):
        left = np.bitwise_count(sector.states & ((1 << top) - 1))
        for cut in range(top, 0, -1):
            for n in counts(cut):
                key, k = (chain, cut, n), math.comb(cut, n)
                if cut == top:
                    grams.append((key, ranks[np.flatnonzero(left == n).reshape(-1, k)]))
                else:
                    empty = (chain, cut + 1, n) if n in counts(cut + 1) else None
                    occupied = (chain, cut + 1, n + 1) if n + 1 in counts(cut + 1) else None
                    steps.append((key, k, empty, occupied))
                blocks.append((k, key, cut - 1 if chain == 0 else N - cut - 1))
    blocks.sort(key=lambda block: block[0])
    sizes = [
        (k, [key for _, key, _ in group])
        for k, group in itertools.groupby(blocks, key=lambda block: block[0])
    ]
    columns = np.array([column for _, _, column in blocks])
    order = np.argsort(columns, kind="stable")
    starts = np.searchsorted(columns[order], np.arange(N - 1))
    return _Plan(grams, steps, sizes, order, starts)


def entanglement_entropy(sector, states: np.ndarray) -> np.ndarray:
    """Bipartite entropy profile: shape (sites - 1,) for one state, (T, sites - 1)
    for a stack; column cut - 1 holds the entropy of sites {0..cut-1}.

    The eigenvalues of the reduced density matrix blocks are the Schmidt
    probabilities; one batched ``eigvalsh`` serves every block of a size,
    every cut and every state of the stack, and a 1 x 1 block is its own
    eigenvalue.  Probabilities at or below 1e-14 contribute zero.
    """
    _check(sector, states)
    stack = np.atleast_2d(states)
    plan = _plan(sector)
    rho = {}
    for key, grid in plan.grams:
        blocks = stack[:, grid]  # (T, right, left)
        rho[key] = blocks.swapaxes(-1, -2) @ blocks.conj()
    for key, k, empty, occupied in plan.steps:
        if occupied is None:
            rho[key] = rho[empty][:, :k, :k]
        elif empty is None:
            rho[key] = rho[occupied][:, -k:, -k:]
        else:
            rho[key] = rho[empty][:, :k, :k] + rho[occupied][:, -k:, -k:]
    entropies = []
    for k, keys in plan.sizes:
        blocks = np.stack([rho[key] for key in keys], axis=1)  # (T, blocks, k, k)
        p = blocks[..., 0].real if k == 1 else np.linalg.eigvalsh(blocks)
        log_p = np.zeros_like(p)
        np.log(p, out=log_p, where=p > 1e-14)
        entropies.append(-np.sum(p * log_p, axis=-1))
    by_block = np.concatenate(entropies, axis=1)[:, plan.order]
    profile = np.add.reduceat(by_block, plan.starts, axis=1)
    return profile[0] if np.ndim(states) == 1 else profile

