"""Adaptive Krylov-subspace propagator for exp(-i H t) on sparse Hamiltonians.

One Lanczos basis serves a whole chunk of up to TIME_CHUNK recorded times:
the small tridiagonal problem gives exp(-i t T) e_1 for every offset t at
once (Park & Light, J. Chem. Phys. 85, 5870, 1986; Hochbruck & Lubich, SIAM
J. Numer. Anal. 34, 1911, 1997), so the basis is built once per chunk rather
than once per recorded time.  The chunk is also the unit that trajectory
hands out: one (times, states) stack per basis, so callers evaluate their
observables on whole stacks and never re-chunk.

The step runs the plain three-term Lanczos recurrence without
reorthogonalisation.  The basis grows until the error estimate
|[exp(-i t T_m)]_{m,1}| beta_m is below tol for every offset.  That estimate
needs a tridiagonal eigensolve, which costs several matvecs, so it is only
made once the leading Taylor term t_max^(m-1) beta_1...beta_m / (m-1)!, an
upper bound on it, has dropped below tol, or at a breakdown, or when the
basis is full.  A full basis returns the leading offsets that converged.
Each row's norm, which a basis that lost its orthonormality would spoil, is
checked against |psi| to within tol and then rescaled.  Reorthogonalising
would cost two m x dim BLAS products per iteration.  Sweeps call the
propagator with BLAS pinned to one thread (dataset.ordered_map), so their
results do not depend on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dstev

STEP_TOL = 1e-10  # local error and norm drift allowed per Krylov basis
MAX_KRYLOV_DIM = 80
# recorded times evolved from one Lanczos basis, and evaluated together by the
# sweep's observables: one basis per chunk saves most of the matvecs, and a
# short chunk, unlike the whole trajectory, adds little to the peak memory
TIME_CHUNK = 16


class EvolutionError(RuntimeError):
    """Propagator failed to reach the requested tolerance."""


def _propagate_first_column(alphas, betas, dts):
    """Rows exp(-i dt T) e_1, one per offset dt, for the real symmetric
    tridiagonal Lanczos matrix T."""
    off_diagonal = np.zeros(max(len(alphas) - 1, 1))  # ?stev wants length >= 1
    off_diagonal[: len(betas)] = betas
    energies, vectors, info = dstev(alphas, off_diagonal)
    if info != 0:
        raise EvolutionError(f"tridiagonal eigensolver ?stev failed with info={info}")
    return (np.exp(-1j * np.multiply.outer(dts, energies)) * vectors[0]) @ vectors.T


def krylov_expm(
    matvec, psi: np.ndarray, dts, tol: float = STEP_TOL, max_dim: int = MAX_KRYLOV_DIM
):
    """Evolve psi by exp(-i H dt) for each of an ascending array of offsets
    dts, from one adaptively sized Lanczos basis.

    matvec applies the Hermitian H to a vector.  The result is a (k, dim)
    stack, where k is the number of offsets unless the basis reached max_dim
    first: then the stack holds the leading offsets that converged, and none
    converging raises EvolutionError.

    The basis is not reorthogonalised.  Each row's norm must then match
    |psi| to within tol (relative): a larger drift means the basis lost its
    orthonormality, as it does when matvec is not Hermitian, and raises
    EvolutionError rather than being renormalised away.
    """
    t_max = np.abs(dts).max()
    norm0 = np.linalg.norm(psi)
    basis = np.empty((max_dim + 1, psi.size), complex)  # rows: Lanczos vectors
    basis[0] = psi / norm0
    alphas, betas = [], []
    bound = 1.0  # t_max^(m-1) beta_1...beta_(m-1) / (m-1)! >= |[exp(-i t T_m)]_{m,1}|
    for m in range(1, max_dim + 1):
        v = basis[m - 1]
        w = matvec(v)
        alphas.append(np.real(np.vdot(v, w)))
        w = w - alphas[-1] * v
        if betas:
            w -= betas[-1] * basis[m - 2]
        beta = np.linalg.norm(w)
        breakdown = beta < 1e-14  # the subspace is invariant: the answer is exact
        if breakdown or bound * beta < tol or m == max_dim:
            small = _propagate_first_column(alphas, betas, dts)
            converged = breakdown | (np.abs(small[:, -1]) * beta < tol)
            k = int(np.cumprod(converged).sum())  # leading offsets that converged
            if k == len(dts) or m == max_dim:
                break
        betas.append(beta)
        basis[m] = w / beta
        bound *= t_max * beta / m
    if k == 0:
        raise EvolutionError(f"Krylov dimension {max_dim} insufficient for tol {tol:.0e}")
    out = small[:k] @ basis[:m]
    norms = np.linalg.norm(out, axis=1)
    drift = np.abs(norms - 1.0).max()
    if drift > tol:
        raise EvolutionError(
            f"Krylov step changed the norm by {drift:.1e} (tol {tol:.0e}); "
            "is the matvec Hermitian?"
        )
    out *= (norm0 / norms)[:, None]
    return out


def trajectory(ham, state: np.ndarray, times):
    """Iterator of (chunk_times, states), one item per Krylov basis, that
    together cover the requested times, evolved from t=0.

    states is the (k, dim) stack psi(chunk_times), k <= TIME_CHUNK.  A basis
    that fills up before its last offset converges returns a shorter stack,
    and the next one starts where it stopped.  The times must be positive and
    strictly ascending; that is checked when trajectory is called.
    """
    times = np.asarray(times, float)
    starts = np.concatenate([[0.0], times])[:-1]
    bad = np.flatnonzero(~(times > starts))  # also catches NaN
    if bad.size:
        i = bad[0]
        raise EvolutionError(
            f"recorded times must be positive and strictly ascending, "
            f"but times[{i}] = {times[i]} does not exceed {starts[i]}"
        )
    return _chunked_steps(ham, state, times)


def _chunked_steps(ham, psi, times):
    t_prev = 0.0
    while len(times):
        states = krylov_expm(ham.apply, psi, times[:TIME_CHUNK] - t_prev)
        yield times[: len(states)], states
        t_prev, psi, times = times[len(states) - 1], states[-1], times[len(states) :]
