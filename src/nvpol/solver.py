"""Steady-state extraction, time evolution, and density-matrix observables."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spinops import SpinQuantumNumber

# null-space threshold for singular values of L, relative to the Frobenius
# norm of its dissipative part (L + L^H) / 2
TOL_NULL = 1e-9
# tolerances of validate_density_matrix: Hermiticity, trace, and the most
# negative eigenvalue accepted
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
EPS = np.finfo(float).eps

DensityMatrix = np.ndarray


class SolverError(Exception):
    """Base class for steady-state solver failures."""


class NoStationaryState(SolverError):
    """The Liouvillian has no null vector within tolerance."""


class DegenerateSteadyState(SolverError):
    """The stationary subspace has dimension > 1."""

    def __init__(self, null_space_dim: int):
        super().__init__(
            f"steady state is degenerate: null space dimension {null_space_dim}; "
            "check that dissipation connects all states"
        )
        self.null_space_dim = null_space_dim


@dataclass(frozen=True)
class SteadyStateReport:
    rho: DensityMatrix
    residual_norm: float
    null_space_dim: int


def validate_density_matrix(rho: np.ndarray) -> None:
    """Check Hermiticity, unit trace, and positivity up to solver tolerance.

    Positivity is validated, never enforced: eigenvalues below -PSD_TOL
    raise, because projecting them away would mask solver bugs.
    """
    if np.abs(rho - rho.conj().T).max() > HERM_TOL:
        raise SolverError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise SolverError(f"density matrix trace {np.trace(rho)} is not 1")
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if evals.min() < -PSD_TOL:
        raise SolverError(
            f"density matrix has eigenvalue {evals.min():.3e} below -{PSD_TOL}"
        )


def steady_state(lv) -> SteadyStateReport:
    """Stationary density matrix of L, with an LU verdict on uniqueness.

    The state solves L vec(rho) = 0 with the first row of L replaced by
    the trace condition vec(I)^T vec(rho) = 1.  That row is redundant in
    L, because vec(I)^H L = 0, so this bordered matrix B has rank
    n^2 - k + 1 when the null space of L has dimension k: it is regular
    exactly when the steady state is unique (the direct method of
    Johansson, Nation & Nori, CPC 184, 1234 (2013)).  One LU of B gives
    both the solve and a 1-norm condition estimate.

    The threshold is TOL_NULL * ||(L + L^H) / 2||_F, but at least
    dim(L) * eps * ||L||_F (rounding).  The coherent part of L is
    anti-Hermitian, so the first norm is the dissipator's alone and the
    verdict does not depend on the field's scale; it is read from
    ``lv.dissipative_norm``, which :func:`nvpol.model.liouvillian` takes
    from the dissipator built once per channel set.  The state is accepted
    at once when the estimated smallest singular value rcond * ||B||_1
    lies above the threshold and the residual ||L vec(rho)||_2 does not.
    A regular B with a large residual means L does not preserve the
    trace.

    Otherwise the singular values of L decide: those up to the threshold
    (with sigma_max in place of ||L||_F) are the null space, and it must
    be one-dimensional for the LU solve to stand.  The result is
    hermitized to scrub numerical asymmetry, and the residual is
    computed on the returned state.

    Raises
    ------
    NoStationaryState
        If the null space is empty within tolerance, or B is exactly
        singular.
    DegenerateSteadyState
        If its dimension exceeds one; physical models with nonzero pump
        have unique steady states, so degeneracy signals a bad config.
    """
    from scipy.linalg import lapack

    mat = lv.matrix
    n = lv.hilbert_dim
    dissipative = lv.dissipative_norm
    system = np.array(mat, dtype=np.complex128, order="F")
    system[0] = np.eye(n).reshape(-1)
    anorm = float(np.abs(system).sum(axis=0).max())
    lu, piv, info = lapack.zgetrf(system, overwrite_a=1)
    sigma_min = 0.0
    if info == 0:
        rcond, _ = lapack.zgecon(lu, anorm, norm="1")
        sigma_min = rcond * anorm
    floor = max(TOL_NULL * dissipative, mat.shape[0] * EPS * np.linalg.norm(mat))
    if sigma_min > floor:
        rho, residual = _solve_bordered(lu, piv, mat, n)
        if residual <= floor:
            validate_density_matrix(rho)
            return SteadyStateReport(rho=rho, residual_norm=residual, null_space_dim=1)
    sing = np.linalg.svd(mat, compute_uv=False)
    tol = max(TOL_NULL * dissipative, mat.shape[0] * EPS * sing[0])
    null_dim = int(np.count_nonzero(sing <= tol))
    if null_dim == 0:
        raise NoStationaryState(f"no singular value below the null-space threshold {tol:.3e}")
    if null_dim > 1:
        raise DegenerateSteadyState(null_dim)
    if info > 0:
        raise NoStationaryState(f"trace-row system is singular: pivot {info} is zero")
    rho, residual = _solve_bordered(lu, piv, mat, n)
    validate_density_matrix(rho)
    return SteadyStateReport(rho=rho, residual_norm=residual, null_space_dim=1)


def _solve_bordered(lu, piv, mat, n) -> tuple:
    """(hermitized rho, ||L vec(rho)||_2) from the LU of the bordered system."""
    from scipy.linalg import lapack

    rhs = np.zeros(n * n, dtype=np.complex128)
    rhs[0] = 1.0
    vec, _ = lapack.zgetrs(lu, piv, rhs)
    rho = vec.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    return rho, float(np.linalg.norm(mat @ rho.reshape(-1)))


def evolve(rho0: DensityMatrix, lv, t: float) -> DensityMatrix:
    """Propagate rho0 for time t (us): vec(rho_t) = expm(L t) vec(rho0).

    Serves as an independent oracle for steady_state; scaling-and-
    squaring expm keeps trace and Hermiticity to 1e-8.
    """
    from scipy.linalg import expm

    if t < 0:
        raise ValueError("evolution time must be non-negative")
    n = lv.hilbert_dim
    rho0 = np.asarray(rho0, dtype=np.complex128)
    if rho0.shape != (n, n):
        raise ValueError(f"state shape {rho0.shape} does not match hilbert_dim {n}")
    vec = expm(lv.matrix * t) @ rho0.reshape(-1)
    return vec.reshape(n, n)


def slowest_rate(lv) -> float:
    """Smallest nonzero decay rate |Re(eigenvalue)| of the Liouvillian.

    Sets the relaxation horizon: evolving for ~50 / slowest_rate reaches
    the steady state to well below 1e-6.  Rates up to 1e-12 of the
    largest, but at least dim(L) * eps * max|eigenvalue| (the rounding
    of the stationary eigenvalue, which grows with the field), count as
    zero.
    """
    ev = np.linalg.eigvals(lv.matrix)
    rates = np.abs(ev.real)
    cutoff = max(max(rates.max(), 1.0) * 1e-12, ev.size * EPS * np.abs(ev).max())
    rates = rates[rates > cutoff]
    if rates.size == 0:
        raise SolverError("Liouvillian has no decaying modes")
    return float(rates.min())


def nuclear_polarization(rho: DensityMatrix, dims, nuclear_spin: SpinQuantumNumber) -> float:
    """<I_z> / I of the reduced nuclear state, in [-1, 1].

    I_z is diagonal in the product basis, so this is the diagonal of rho
    weighted by m_I / I; no partial trace is formed.
    """
    weights = _nuclear_weights(tuple(int(d) for d in dims), nuclear_spin)
    if rho.shape != (weights.size, weights.size):
        raise ValueError(f"state dimension {rho.shape} does not match dims {dims}")
    return float(np.real(np.diagonal(rho)) @ weights)


@lru_cache(maxsize=None)
def _nuclear_weights(dims: tuple, nuclear_spin: SpinQuantumNumber) -> np.ndarray:
    """m_I / I of each product basis state (electron slot 0, nucleus slot
    1, descending m), read-only because every caller gets the same array."""
    d0, d1 = dims
    if nuclear_spin.dim != d1:
        raise ValueError(f"nuclear spin dimension {nuclear_spin.dim} does not match dims {dims}")
    weights = np.tile((nuclear_spin.s - np.arange(d1)) / nuclear_spin.s, d0)
    weights.flags.writeable = False
    return weights


def electron_polarization(rho: DensityMatrix, dims) -> float:
    """Population of m_s = 0 in the reduced electron state.

    In the product basis (electron slot 0, descending m) the m_s = 0
    states are rows d1 to 2 d1 - 1, so this sums that stretch of the
    diagonal of rho; no partial trace is formed.
    """
    d0, d1 = (int(d) for d in dims)
    if d0 != 3:
        raise ValueError("electron subsystem must be spin 1 (dimension 3)")
    if rho.shape != (d0 * d1, d0 * d1):
        raise ValueError(f"state dimension {rho.shape} does not match dims {dims}")
    return float(np.real(np.diagonal(rho))[d1 : 2 * d1].sum())
