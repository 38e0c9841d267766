"""Excited-state spin model: Hamiltonian, collapse channels, Liouvillian,
the steady-state solve of one parameter point, and pump calibration.

All couplings are linear frequencies in MHz, magnetic fields in Gauss,
relaxation times in microseconds.  The 2*pi conversion to angular
frequency happens once, inside :func:`liouvillian`; collapse rates are
inverse microseconds and enter the generator unscaled.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import solver
from .spinops import OperatorMatrix, SpinQuantumNumber, embed, spin_operators

# Default constants.  gamma_e corresponds to electron g ~ 2; gamma_n is
# the 14N value.  Dissipation defaults are working values meant to be
# overridden or calibrated via calibrate_pump.
GAMMA_E_MHZ_PER_G = 2.8025
GAMMA_N14_MHZ_PER_G = 3.077e-4
D_ES_MHZ = 1400.0
A_HYPERFINE_MHZ = 40.0

ELECTRON_SPIN = SpinQuantumNumber(2)
# index of m_s = 0 in the descending-m spin-1 electron basis (+1, 0, -1)
MS0_INDEX = 1


class CalibrationError(ValueError):
    """Raised when calibrate_pump cannot reach the requested target."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class HyperfineTensor:
    """Axial hyperfine coupling of the on-axis nucleus: the tensor is
    diag(a_perp, a_perp, a_par) in the NV frame, by the center's C3v
    symmetry."""

    a_par: float = A_HYPERFINE_MHZ
    a_perp: float = A_HYPERFINE_MHZ


@dataclass(frozen=True)
class NVSystemParams:
    """Coherent parameters of the electron (x) nucleus system."""

    d_es: float = D_ES_MHZ
    e_es: float = 0.0
    b_field: tuple = (0.0, 0.0, 0.0)
    gamma_e: float = GAMMA_E_MHZ_PER_G
    gamma_n: float = GAMMA_N14_MHZ_PER_G
    hyperfine: HyperfineTensor = field(default_factory=HyperfineTensor)
    nuclear_spin: SpinQuantumNumber = SpinQuantumNumber(2)

    def __post_init__(self):
        if not self.d_es > 0:
            raise ValueError(f"d_es must be positive, got {self.d_es}")
        if not self.gamma_e > 0:
            raise ValueError(f"gamma_e must be positive, got {self.gamma_e}")
        if not abs(self.gamma_n) < self.gamma_e:
            raise ValueError("expected |gamma_n| < gamma_e")
        b = tuple(float(x) for x in self.b_field)
        if len(b) != 3:
            raise ValueError("b_field must have three components")
        object.__setattr__(self, "b_field", b)

    @property
    def dims(self) -> tuple:
        return (ELECTRON_SPIN.dim, self.nuclear_spin.dim)


@dataclass(frozen=True)
class DissipationParams:
    """Incoherent rates: optical pump plus T1 channels.

    pump_rate is the m_s = +-1 -> 0 transfer rate in MHz (inverse
    microseconds); pump_leak_ratio scales the reverse channels.  A
    relaxation time of math.inf switches that channel off.
    """

    pump_rate: float = 10.0
    pump_leak_ratio: float = 0.0
    t1_electron: float = 100.0
    t1_nuclear: float = 1000.0

    def __post_init__(self):
        if self.pump_rate < 0:
            raise ValueError("pump_rate must be >= 0")
        if not 0.0 <= self.pump_leak_ratio <= 1.0:
            raise ValueError("pump_leak_ratio must lie in [0, 1]")
        if not self.t1_electron > 0 or not self.t1_nuclear > 0:
            raise ValueError("relaxation times must be positive")


@dataclass(frozen=True)
class Liouvillian:
    """Dense vectorized Lindblad generator on an n-dim Hilbert space.

    dissipative_norm is the Frobenius norm of the Hermitian part
    (L + L^H) / 2, the scale of the steady-state uniqueness threshold.
    :func:`liouvillian` passes it from the cached dissipator; a generator
    built directly from a matrix computes it here.
    """

    matrix: np.ndarray
    hilbert_dim: int
    dissipative_norm: float | None = None

    def __post_init__(self):
        big = self.hilbert_dim * self.hilbert_dim
        if self.matrix.shape != (big, big):
            raise ValueError(
                f"Liouvillian matrix shape {self.matrix.shape} does not match "
                f"hilbert_dim {self.hilbert_dim}"
            )
        if self.dissipative_norm is None:
            mat = self.matrix
            object.__setattr__(
                self, "dissipative_norm", float(np.linalg.norm(0.5 * (mat + mat.conj().T)))
            )


@lru_cache(maxsize=None)
def _joint_spin_operators(dims: tuple) -> tuple:
    """((Sx, Sy, Sz), (Ix, Iy, Iz)) embedded in the joint space of dims.

    The operators depend on dims alone, so they are built once per dims
    and shared; they are marked read-only because every caller gets the
    same arrays.
    """
    es = spin_operators(ELECTRON_SPIN)
    ns = spin_operators(SpinQuantumNumber(dims[1] - 1))
    s_ops = tuple(embed(op, 0, dims) for op in (es.sx, es.sy, es.sz))
    i_ops = tuple(embed(op, 1, dims) for op in (ns.sx, ns.sy, ns.sz))
    for op in s_ops + i_ops:
        op.flags.writeable = False
    return s_ops, i_ops


@lru_cache(maxsize=None)
def _spin_products(dims: tuple) -> tuple:
    """Field-independent products of the Hamiltonian on the joint space:
    (Sz^2 - S(S+1)/3, Sx^2 - Sy^2, (Ix Sx, Iy Sy, Iz Sz)), read-only and
    shared like the operators they are made of."""
    (sx, sy, sz), (ix, iy, iz) = _joint_spin_operators(dims)
    s_e = ELECTRON_SPIN.s
    eye = np.eye(dims[0] * dims[1], dtype=np.complex128)
    zfs = sz @ sz - (s_e * (s_e + 1.0) / 3.0) * eye
    strain = sx @ sx - sy @ sy
    hyperfine = (ix @ sx, iy @ sy, iz @ sz)
    for op in (zfs, strain) + hyperfine:
        op.flags.writeable = False
    return zfs, strain, hyperfine


def build_hamiltonian(p: NVSystemParams) -> OperatorMatrix:
    """Joint-space Hamiltonian in MHz.

    H = d_es (Sz^2 - S(S+1)/3) + e_es (Sx^2 - Sy^2)
        + B . (gamma_e S + gamma_n I)
        + a_perp (Ix Sx + Iy Sy) + a_par Iz Sz
    """
    dims = p.dims
    (sx, sy, sz), (ix, iy, iz) = _joint_spin_operators(dims)
    zfs, strain, _hyperfine = _spin_products(dims)
    ham = p.d_es * zfs
    ham += p.e_es * strain
    for b_k, s_k, i_k in zip(p.b_field, (sx, sy, sz), (ix, iy, iz)):
        if b_k != 0.0:
            ham += b_k * (p.gamma_e * s_k + p.gamma_n * i_k)
    ham += build_hyperfine(p.hyperfine, dims)
    return ham


def build_hyperfine(h: HyperfineTensor, dims) -> OperatorMatrix:
    """Hyperfine operator a_perp (Ix Sx + Iy Sy) + a_par Iz Sz on the
    joint space.  Zero couplings are skipped."""
    dims = tuple(int(d) for d in dims)
    out = np.zeros((dims[0] * dims[1],) * 2, dtype=np.complex128)
    for a, prod in zip((h.a_perp, h.a_perp, h.a_par), _spin_products(dims)[2]):
        if a != 0.0:
            out += a * prod
    return out


def _ketbra(dim: int, i: int, j: int) -> np.ndarray:
    op = np.zeros((dim, dim), dtype=np.complex128)
    op[i, j] = 1.0
    return op


class CollapseChannels(tuple):
    """Collapse channels as (operator, rate) pairs, carrying the
    dissipator they make on the n-dim Hilbert space.

    ``dissipator`` is the read-only superoperator

        sum_k g_k (C_k kron conj(C_k)
                   - (C_k^H C_k kron I + I kron (C_k^H C_k)^T) / 2)

    in the row-stacking convention of :func:`liouvillian`, and
    ``dissipative_norm`` the Frobenius norm of its Hermitian part.  Both
    are built once, when the channel set is made.

    Raises
    ------
    ValueError
        If an operator is not n x n.
    """

    def __new__(cls, pairs, hilbert_dim: int):
        self = super().__new__(cls, pairs)
        n = self.hilbert_dim = int(hilbert_dim)
        ops = [np.asarray(op, dtype=np.complex128) for op, _rate in self]
        for cop in ops:
            if cop.shape != (n, n):
                raise ValueError(
                    f"collapse operator shape {cop.shape} does not match "
                    f"Hamiltonian dimension {n}"
                )
        rates = np.array([float(rate) for _op, rate in self])
        stack = np.array(ops, dtype=np.complex128).reshape(len(ops), n, n)
        eye = np.eye(n, dtype=np.complex128)
        # sum_k g_k C_k kron conj(C_k): element (a c, b d) of the matmul is
        # sum_k g_k C_k[a, c] conj(C_k[b, d]); reorder to (a b, c d)
        flat = stack.reshape(len(ops), n * n)
        jump = (rates[:, None] * flat).T @ flat.conj()
        diss = jump.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        # sum_k g_k C_k^H C_k, contracting over (k, row)
        cdc = (rates[:, None, None] * stack).reshape(-1, n).conj().T @ stack.reshape(-1, n)
        diss -= 0.5 * (_kron(cdc, eye) + _kron(eye, cdc.T))
        diss.flags.writeable = False
        self.dissipator = diss
        self.dissipative_norm = float(np.linalg.norm(0.5 * (diss + diss.conj().T)))
        return self


def build_collapse_ops(d: DissipationParams, dims) -> CollapseChannels:
    """Collapse channels as (operator, rate) pairs on the joint space.

    Channels: nuclear-conserving optical pump |m_s=0><m_s=+-1| at
    pump_rate with reverse channels at pump_rate * pump_leak_ratio;
    electron thermalization between every ordered m_s pair at
    1/(2 t1_electron); nuclear thermalization between adjacent m_I at
    1/(2 t1_nuclear).  Zero-rate channels are dropped.

    The channels depend on d and dims alone, so they are built once per
    pair and shared, together with their dissipator (see
    :class:`CollapseChannels`); at most 8 pairs are kept.  The operators
    and the dissipator are read-only for that reason.
    """
    return _collapse_ops(d, tuple(int(n) for n in dims))


@lru_cache(maxsize=8)
def _collapse_ops(d: DissipationParams, dims: tuple) -> CollapseChannels:
    de, dn = dims
    if de != ELECTRON_SPIN.dim:
        raise ValueError(f"electron dimension must be {ELECTRON_SPIN.dim}, got {de}")
    ops = []
    if d.pump_rate > 0:
        for src in (0, 2):
            ops.append((embed(_ketbra(de, MS0_INDEX, src), 0, dims), d.pump_rate))
        leak_rate = d.pump_rate * d.pump_leak_ratio
        if leak_rate > 0:
            for dst in (0, 2):
                ops.append((embed(_ketbra(de, dst, MS0_INDEX), 0, dims), leak_rate))
    rate_e = 0.0 if math.isinf(d.t1_electron) else 1.0 / (2.0 * d.t1_electron)
    if rate_e > 0:
        for i in range(de):
            for j in range(de):
                if i != j:
                    ops.append((embed(_ketbra(de, i, j), 0, dims), rate_e))
    rate_n = 0.0 if math.isinf(d.t1_nuclear) else 1.0 / (2.0 * d.t1_nuclear)
    if rate_n > 0:
        for i in range(dn - 1):
            ops.append((embed(_ketbra(dn, i, i + 1), 1, dims), rate_n))
            ops.append((embed(_ketbra(dn, i + 1, i), 1, dims), rate_n))
    for op, _rate in ops:
        op.flags.writeable = False
    return CollapseChannels(ops, de * dn)


def liouvillian(ham: OperatorMatrix, collapse) -> Liouvillian:
    """Vectorized Lindblad generator (row-stacking convention).

    vec(rho) = rho.reshape(n*n) in C order, so vec(A rho B) =
    (A kron B^T) vec(rho) and

    L = -i 2 pi (H kron I - I kron H^T)
        + sum_k g_k (C_k kron conj(C_k)
                     - (C_k^H C_k kron I + I kron (C_k^H C_k)^T) / 2)

    The 2*pi converts the MHz Hamiltonian to angular frequency; rates
    g_k are inverse microseconds.  vec(I)^H L = 0 (trace preservation)
    holds to 1e-10 by construction.

    collapse is a :class:`CollapseChannels`, as build_collapse_ops
    returns, whose dissipator is used as built; any other iterable of
    (operator, rate) pairs is made into one first.  L is a copy of the
    dissipator with -2 pi i H added at the n^3 entries that each of
    H kron I and I kron H^T fills, so no Kronecker product is formed.
    The returned Liouvillian carries the dissipator's norm: for
    Hermitian H the coherent part is anti-Hermitian, so that is the
    norm of the Hermitian part of L.
    """
    ham = np.asarray(ham, dtype=np.complex128)
    n = ham.shape[0]
    if ham.shape != (n, n):
        raise ValueError(f"Hamiltonian must be square, got {ham.shape}")
    if not isinstance(collapse, CollapseChannels):
        collapse = CollapseChannels(collapse, n)
    elif collapse.hilbert_dim != n:
        raise ValueError(
            f"collapse operator shape {(collapse.hilbert_dim,) * 2} does not match "
            f"Hamiltonian dimension {n}"
        )
    gen = collapse.dissipator.copy()
    left, right = _coherent_index(n)
    coherent = -2j * np.pi * ham
    flat = gen.reshape(-1)
    flat[left] += coherent[:, :, None]
    flat[right] -= coherent.T[:, :, None]
    return Liouvillian(matrix=gen, hilbert_dim=n, dissipative_norm=collapse.dissipative_norm)


@lru_cache(maxsize=None)
def _coherent_index(n: int) -> tuple:
    """Flat indices into an (n^2, n^2) generator, each shaped [a, c, b]:
    where H kron I holds H[a, c] (row a n + b, column c n + b), and where
    I kron H^T holds H^T[a, c] (row b n + a, column b n + c)."""
    a, c, b = np.indices((n, n, n))
    left = (a * n + b) * n * n + c * n + b
    right = (b * n + a) * n * n + b * n + c
    left.flags.writeable = right.flags.writeable = False
    return left, right


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices as one broadcast."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def solve_point(params: NVSystemParams, diss: DissipationParams):
    """Steady-state polarization at one parameter point.

    Returns (nuclear polarization, electron polarization,
    SteadyStateReport).
    """
    ham = build_hamiltonian(params)
    lv = liouvillian(ham, build_collapse_ops(diss, params.dims))
    report = solver.steady_state(lv)
    p_n = solver.nuclear_polarization(report.rho, params.dims, params.nuclear_spin)
    p_e = solver.electron_polarization(report.rho, params.dims)
    return p_n, p_e, report


def calibrate_pump(
    target_electron_polarization: float,
    d: DissipationParams,
    p: NVSystemParams,
    tol: float = 1e-3,
    max_iter: int = 200,
) -> DissipationParams:
    """Adjust pump_leak_ratio so the steady electron polarization at
    B = 0, a_perp = 0 matches the target.

    The calibration point removes the transfer mechanism (a_perp = 0)
    and the field dependence, leaving a monotone decreasing map from
    leak ratio to m_s = 0 population that is bisected on [0, 1].  At
    that point only nuclear T1 connects the nuclear levels, and the
    electron polarization does not depend on its rate; the solves use a
    nuclear T1 of 0.5 / pump_rate so that a slow or switched-off nuclear
    channel cannot make the steady state degenerate.  The caller's
    t1_nuclear is returned unchanged.

    Raises
    ------
    CalibrationError
        If the target lies outside the attainable range; the message
        and the ``achieved`` attribute carry the closest bound.
    """
    if not 0.0 < target_electron_polarization < 1.0:
        raise ValueError("target polarization must lie strictly in (0, 1)")
    if d.pump_rate == 0:
        raise CalibrationError(
            "pump_rate is zero: electron polarization is fixed at the maximally "
            "mixed value and cannot be calibrated",
            achieved=1.0 / 3.0,
        )
    p_cal = replace(p, b_field=(0.0, 0.0, 0.0), hyperfine=replace(p.hyperfine, a_perp=0.0))
    d_cal = replace(d, t1_nuclear=0.5 / d.pump_rate)
    lo, hi = 0.0, 1.0
    p_lo = solve_point(p_cal, replace(d_cal, pump_leak_ratio=lo))[1]
    if target_electron_polarization > p_lo:
        raise CalibrationError(
            f"target {target_electron_polarization} unreachable: maximum "
            f"achievable electron polarization is {p_lo:.6f} at leak ratio 0",
            achieved=p_lo,
        )
    p_hi = solve_point(p_cal, replace(d_cal, pump_leak_ratio=hi))[1]
    if target_electron_polarization < p_hi:
        raise CalibrationError(
            f"target {target_electron_polarization} unreachable: minimum "
            f"achievable electron polarization is {p_hi:.6f} at leak ratio 1",
            achieved=p_hi,
        )
    # polarization decreases with leak, so keep the sign convention of a
    # decreasing function: f(lo) >= 0 >= f(hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        p_mid = solve_point(p_cal, replace(d_cal, pump_leak_ratio=mid))[1]
        if abs(p_mid - target_electron_polarization) <= tol:
            return replace(d, pump_leak_ratio=mid)
        if p_mid > target_electron_polarization:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection did not reach the target within {max_iter} iterations",
        achieved=p_mid,
    )
