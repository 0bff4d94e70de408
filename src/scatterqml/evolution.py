"""Adaptive Krylov-subspace propagator for exp(-i H dt) on sparse Hamiltonians.

The step runs the plain three-term Lanczos recurrence without
reorthogonalisation (Park & Light, J. Chem. Phys. 85, 5870, 1986).  A short
time step converges in a few tens of iterations, before finite-precision
Lanczos loses orthogonality in a way that matters for exp(-i H dt) psi, and
the norm of the assembled result, which a non-orthonormal basis would spoil,
is checked against the step tolerance.  Reorthogonalising would cost two
m x dim BLAS products per iteration.  Sweeps call the propagator with BLAS
pinned to one thread (dataset.ordered_map), so their results do not depend
on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dstev

STEP_TOL = 1e-10  # local error and norm drift allowed per Krylov step
MAX_KRYLOV_DIM = 80


class EvolutionError(RuntimeError):
    """Propagator failed to reach the requested tolerance."""


def _propagate_first_column(alphas, betas, dt):
    """First column of exp(-i dt T) for the real symmetric tridiagonal Lanczos T."""
    off_diagonal = np.zeros(max(len(alphas) - 1, 1))  # ?stev wants length >= 1
    off_diagonal[: len(betas)] = betas
    energies, vectors, info = dstev(alphas, off_diagonal)
    if info != 0:
        raise EvolutionError(f"tridiagonal eigensolver ?stev failed with info={info}")
    return vectors @ (np.exp(-1j * dt * energies) * vectors[0])


def krylov_expm(
    matvec, psi: np.ndarray, dt: float, tol: float = STEP_TOL, max_dim: int = MAX_KRYLOV_DIM
):
    """Evolve psi by exp(-i H dt) using an adaptively sized Lanczos basis.

    matvec applies the Hermitian H to a vector.  The local error is estimated
    from the weight leaking into the next Krylov direction; the basis grows
    until the estimate drops below tol or max_dim is hit.

    The basis is not reorthogonalised.  The result's norm must then match
    |psi| to within tol (relative): a larger drift means the basis lost its
    orthonormality, as it does when matvec is not Hermitian, and raises
    EvolutionError rather than being renormalised away.
    """
    if dt == 0:
        return psi.copy()
    norm0 = np.linalg.norm(psi)
    basis = np.empty((max_dim + 1, psi.size), complex)  # rows: Lanczos vectors
    basis[0] = psi / norm0
    alphas, betas = [], []
    for m in range(1, max_dim + 1):
        v = basis[m - 1]
        w = matvec(v)
        alphas.append(np.real(np.vdot(v, w)))
        w = w - alphas[-1] * v
        if betas:
            w -= betas[-1] * basis[m - 2]
        beta = np.linalg.norm(w)
        small = _propagate_first_column(alphas, betas, dt)
        # happy breakdown (exact in the current subspace) or converged
        if beta < 1e-14 or abs(small[-1]) * beta < tol:
            break
        betas.append(beta)
        basis[m] = w / beta
    else:
        raise EvolutionError(f"Krylov dimension {max_dim} insufficient for tol {tol:.0e}")
    # an einsum, not `small @ basis`: with BLAS pinned to one thread either
    # is serial, and the einsum keeps every event's bytes where they are
    out = np.einsum("i,ij->j", small, basis[:m])
    norm_out = np.linalg.norm(out)
    if abs(norm_out - 1.0) > tol:
        raise EvolutionError(
            f"Krylov step changed the norm by {abs(norm_out - 1.0):.1e} (tol {tol:.0e}); "
            "is the matvec Hermitian?"
        )
    return out * (norm0 / norm_out)


def evolve(ham, state: np.ndarray, dt: float) -> np.ndarray:
    """Return exp(-i H dt)|state>, norm preserved to STEP_TOL."""
    return krylov_expm(ham.apply, state, dt)


def trajectory(ham, state: np.ndarray, times: np.ndarray):
    """Yield (t, psi(t)) at the requested, ascending times starting from t=0."""
    psi = state.copy()
    t_prev = 0.0
    for t in times:
        psi = evolve(ham, psi, t - t_prev)
        t_prev = t
        yield t, psi
