import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvpol.model import (
    DissipationParams,
    HyperfineTensor,
    Liouvillian,
    NVSystemParams,
    build_collapse_ops,
    build_hamiltonian,
    liouvillian,
)
from nvpol.spinops import SpinQuantumNumber, spin_operators
from nvpol.solver import (
    TOL_NULL,
    DegenerateSteadyState,
    SolverError,
    NoStationaryState,
    SteadyStateReport,
    electron_polarization,
    evolve,
    nuclear_polarization,
    slowest_rate,
    steady_state,
    validate_density_matrix,
)


N14 = SpinQuantumNumber(2)


def two_level_decay(gamma=0.7):
    c = np.zeros((2, 2), dtype=complex)
    c[0, 1] = 1.0
    return liouvillian(np.zeros((2, 2), dtype=complex), [(c, gamma)])


def random_irreducible_liouvillian(rng, n):
    """Random model with a dissipative ring so the steady state is unique."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (h + h.conj().T)
    collapse = []
    for i in range(n):
        c = np.zeros((n, n), dtype=complex)
        c[(i + 1) % n, i] = 1.0
        collapse.append((c, float(rng.uniform(0.5, 2.0))))
    for _ in range(rng.integers(1, 3)):
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        collapse.append((c, float(rng.uniform(0.1, 1.0))))
    return liouvillian(h, collapse)


def random_density_matrix(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def steady_state_svd(lv) -> SteadyStateReport:
    """Reference steady state with an SVD verdict on uniqueness, as
    steady_state computed it before the LU verdict replaced the SVD."""
    mat = lv.matrix
    n = lv.hilbert_dim
    sing = np.linalg.svd(mat, compute_uv=False)
    sigma_max = sing[0] if sing.size else 0.0
    dissipative = np.linalg.norm(0.5 * (mat + mat.conj().T))
    tol = max(TOL_NULL * dissipative, mat.shape[0] * np.finfo(float).eps * sigma_max)
    null_dim = int(np.count_nonzero(sing <= tol))
    if null_dim == 0:
        raise NoStationaryState(f"no singular value below the null-space threshold {tol:.3e}")
    if null_dim > 1:
        raise DegenerateSteadyState(null_dim)
    system = mat.copy()
    system[0] = np.eye(n).reshape(-1)
    rhs = np.zeros(n * n, dtype=np.complex128)
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoStationaryState(f"trace-row system is singular: {exc}") from exc
    rho = vec.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    validate_density_matrix(rho)
    residual = float(np.linalg.norm(mat @ rho.reshape(-1)))
    return SteadyStateReport(rho=rho, residual_norm=residual, null_space_dim=null_dim)


def verdict(solve, lv):
    """(error class name or None, rho or None) of one steady-state solve."""
    try:
        return None, solve(lv).rho
    except SolverError as exc:
        return type(exc).__name__, None


def zero_or(lo, hi):
    """0.0 or a float in [lo, hi]: a coupling that is off or clearly on."""
    return st.just(0.0) | st.floats(lo, hi)


def inf_or(lo, hi):
    """math.inf (channel off) or a relaxation time in [lo, hi]."""
    return st.just(math.inf) | st.floats(lo, hi)


class TestSteadyState:
    def test_two_level_decay_ground_state(self):
        report = steady_state(two_level_decay())
        assert np.abs(report.rho - np.diag([1.0, 0.0])).max() < 1e-12
        assert report.null_space_dim == 1
        assert report.residual_norm < 1e-12

    def test_unitary_only_is_degenerate(self):
        lv = liouvillian(np.diag([1.0, 2.0]).astype(complex), [])
        with pytest.raises(DegenerateSteadyState) as exc_info:
            steady_state(lv)
        assert exc_info.value.null_space_dim == 2

    def test_no_stationary_state_detected(self):
        # a full-rank matrix is not trace preserving and has no null space
        lv = Liouvillian(matrix=np.eye(4, dtype=complex), hilbert_dim=2)
        with pytest.raises(NoStationaryState):
            steady_state(lv)

    def test_pump_without_flip_flop_factorizes(self):
        # a_perp = 0 at zero field: electron settles into the analytic
        # three-level balance and the nucleus stays maximally mixed
        p = NVSystemParams(
            b_field=(0.0, 0.0, 0.0),
            hyperfine=HyperfineTensor(a_par=40.0, a_perp=0.0),
        )
        d = DissipationParams()  # pump 10, leak 0, t1e 100, t1n 1000
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, p.dims))
        report = steady_state(lv)
        gam, r = 10.0, 1.0 / (2.0 * 100.0)
        p0 = (gam + r) / (gam + 3 * r)
        rho_e = np.diag([(1 - p0) / 2, p0, (1 - p0) / 2]).astype(complex)
        expected = np.kron(rho_e, np.eye(3) / 3.0)
        assert np.abs(report.rho - expected).max() < 1e-8
        assert abs(nuclear_polarization(report.rho, p.dims, N14)) < 1e-10

    def test_matches_long_time_evolution(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            lv = random_irreducible_liouvillian(rng, n)
            rho_ss = steady_state(lv).rho
            t = 50.0 / slowest_rate(lv)
            rho_t = evolve(random_density_matrix(rng, n), lv, t)
            assert np.abs(rho_t - rho_ss).max() < 1e-6

    def test_high_field_matches_evolution(self):
        # 10 and 30 kG: sigma_max of L grows with |H|, while the dissipative
        # gap that decides uniqueness does not.  With a pump leak the
        # slowest rate is small (5e-4), below the rounding of the
        # stationary eigenvalue's 1e-12 relative cutoff at these fields.
        for b_gauss, leak in ((30000.0, 0.0), (10000.0, 0.1245625), (30000.0, 0.1245625)):
            p = NVSystemParams(b_field=(0.0, 0.0, b_gauss))
            d = DissipationParams(pump_leak_ratio=leak)
            lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, p.dims))
            report = steady_state(lv)
            assert report.null_space_dim == 1
            rho_t = evolve(np.eye(9) / 9.0, lv, 50.0 / slowest_rate(lv))
            assert np.abs(rho_t - report.rho).max() < 1e-6, (b_gauss, leak)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        b_axial=st.floats(0.0, 100000.0),
        b_transverse=zero_or(1.0, 100.0),
        a_perp=zero_or(1.0, 60.0),
        e_es=zero_or(-300.0, 300.0),
        leak=st.floats(0.0, 1.0),
        t1_electron=inf_or(1.0, 1e4),
        t1_nuclear=inf_or(10.0, 1e5),
    )
    def test_lu_verdict_matches_svd_oracle(self, b_axial, b_transverse, a_perp, e_es,
                                           leak, t1_electron, t1_nuclear):
        p = NVSystemParams(e_es=e_es, b_field=(b_transverse, 0.0, b_axial),
                           hyperfine=HyperfineTensor(a_par=40.0, a_perp=a_perp))
        d = DissipationParams(pump_leak_ratio=leak, t1_electron=t1_electron,
                              t1_nuclear=t1_nuclear)
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, p.dims))
        got_error, got_rho = verdict(steady_state, lv)
        want_error, want_rho = verdict(steady_state_svd, lv)
        assert got_error == want_error
        if want_rho is not None:
            assert np.abs(got_rho - want_rho).max() <= 1e-10

    def test_border_cases_match_svd_oracle(self):
        # a_perp = 0 with T1n = inf conserves the nuclear populations:
        # degenerate with null dimension 3, found by the SVD fallback
        p = NVSystemParams(b_field=(0.0, 0.0, 500.0),
                           hyperfine=HyperfineTensor(a_par=40.0, a_perp=0.0))
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(
            DissipationParams(t1_nuclear=math.inf), p.dims))
        with pytest.raises(DegenerateSteadyState) as exc_info:
            steady_state(lv)
        assert exc_info.value.null_space_dim == 3
        assert verdict(steady_state_svd, lv)[0] == "DegenerateSteadyState"
        # at 40 kG with both T1 off, the gap lies near the rounding floor:
        # the LU estimate falls below it, the SVD still finds one null
        # vector, and the LU solve stands
        p = NVSystemParams(b_field=(0.0, 0.0, 40000.0),
                           hyperfine=HyperfineTensor(a_par=40.0, a_perp=10.0))
        d = DissipationParams(pump_leak_ratio=0.8, t1_electron=math.inf,
                              t1_nuclear=math.inf)
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, p.dims))
        report = steady_state(lv)
        assert report.null_space_dim == 1
        assert np.abs(report.rho - steady_state_svd(lv).rho).max() <= 1e-10

    def test_residual_small_on_nv_model(self):
        p = NVSystemParams(b_field=(0.0, 0.0, 500.0))
        d = DissipationParams(pump_leak_ratio=0.1245625)
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, p.dims))
        report = steady_state(lv)
        assert report.residual_norm < 1e-9 * np.abs(lv.matrix).max()


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        rho0 = random_density_matrix(rng, 3)
        lv = liouvillian(np.diag([0.0, 1.0, 2.0]).astype(complex), [])
        assert np.abs(evolve(rho0, lv, 0.0) - rho0).max() < 1e-14

    def test_two_level_analytic_decay(self):
        gamma, t = 0.7, 1.3
        lv = two_level_decay(gamma)
        rho0 = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        rho_t = evolve(rho0, lv, t)
        assert rho_t[1, 1] == pytest.approx(0.7 * np.exp(-gamma * t), abs=1e-10)
        assert rho_t[0, 1] == pytest.approx(0.2 * np.exp(-gamma * t / 2), abs=1e-10)
        assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-12)

    def test_unitary_evolution_preserves_purity(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        lv = liouvillian(h, [])
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho_t = evolve(rho0, lv, 0.37)
        assert np.trace(rho_t @ rho_t).real == pytest.approx(1.0, abs=1e-10)
        # Rabi population transfer: sin^2(2 pi t) for unit coupling in MHz
        assert rho_t[1, 1].real == pytest.approx(
            np.sin(2 * np.pi * 0.37) ** 2, abs=1e-10
        )


class TestSlowestRate:
    def test_two_level_decay_gap(self):
        # eigenvalues are 0, -g/2, -g/2, -g; the gap is g/2
        gamma = 0.8
        assert slowest_rate(two_level_decay(gamma)) == pytest.approx(
            gamma / 2, rel=1e-10
        )

    def test_positive_on_nv_model(self):
        p = NVSystemParams(b_field=(0.0, 0.0, 500.0))
        lv = liouvillian(
            build_hamiltonian(p), build_collapse_ops(DissipationParams(), p.dims)
        )
        rate = slowest_rate(lv)
        assert rate > 0.0
        assert rate < 10.0  # no faster than the pump


def partial_trace(rho, keep, dims):
    """Reduced state of one subsystem of a bipartite density matrix, as
    the package computed it before the observables read the diagonal;
    kept here as the oracle for both polarizations."""
    d0, d1 = (int(d) for d in dims)
    if rho.shape != (d0 * d1, d0 * d1):
        raise ValueError(f"state dimension {rho.shape} does not match dims {dims}")
    r = rho.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 0 or 1, got {keep}")


class TestPartialTrace:
    """The partial-trace oracle itself."""

    def test_product_state_exact(self):
        rng = np.random.default_rng(5)
        rho_e = random_density_matrix(rng, 3)
        rho_n = random_density_matrix(rng, 3)
        rho = np.kron(rho_e, rho_n)
        assert np.abs(partial_trace(rho, 0, (3, 3)) - rho_e).max() < 1e-14
        assert np.abs(partial_trace(rho, 1, (3, 3)) - rho_n).max() < 1e-14

    def test_maximally_mixed(self):
        rho = np.eye(9, dtype=complex) / 9.0
        assert np.abs(partial_trace(rho, 1, (3, 3)) - np.eye(3) / 3).max() < 1e-14

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng, 6)
        reduced = partial_trace(rho, 0, (2, 3))
        assert np.trace(reduced) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(9) / 9.0, 0, (2, 3))
        with pytest.raises(ValueError):
            partial_trace(np.eye(9) / 9.0, 2, (3, 3))


class TestPolarizations:
    def test_pure_nuclear_states(self):
        rho_e = np.eye(3, dtype=complex) / 3.0
        for idx, expected in ((0, 1.0), (1, 0.0), (2, -1.0)):
            rho_n = np.zeros((3, 3), dtype=complex)
            rho_n[idx, idx] = 1.0
            rho = np.kron(rho_e, rho_n)
            assert nuclear_polarization(rho, (3, 3), N14) == pytest.approx(expected)

    def test_population_mixture(self):
        rho_n = np.diag([0.05, 0.05, 0.90]).astype(complex)
        rho = np.kron(np.eye(3) / 3.0, rho_n)
        assert nuclear_polarization(rho, (3, 3), N14) == pytest.approx(-0.85, abs=1e-12)

    def test_spin_half_normalization(self):
        rho_n = np.diag([1.0, 0.0]).astype(complex)
        rho = np.kron(np.eye(3) / 3.0, rho_n)
        assert nuclear_polarization(rho, (3, 2), SpinQuantumNumber(1)) == pytest.approx(1.0)

    def test_electron_ms0_population(self):
        rho_e = np.diag([0.1, 0.6, 0.3]).astype(complex)
        rho = np.kron(rho_e, np.eye(3) / 3.0)
        assert electron_polarization(rho, (3, 3)) == pytest.approx(0.6, abs=1e-12)

    def test_invariant_under_electron_unitary(self):
        rng = np.random.default_rng(9)
        rho = random_density_matrix(rng, 9)
        q, _ = np.linalg.qr(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        u = np.kron(q, np.eye(3))
        rho_rot = u @ rho @ u.conj().T
        before = nuclear_polarization(rho, (3, 3), N14)
        after = nuclear_polarization(rho_rot, (3, 3), N14)
        assert after == pytest.approx(before, abs=1e-10)


def nuclear_polarization_partial_trace(rho, dims, nuclear_spin):
    """Reference <I_z> / I through the reduced nuclear state, as
    nuclear_polarization computed it before it read the diagonal."""
    rho_n = partial_trace(rho, 1, dims)
    iz = spin_operators(nuclear_spin).sz
    return float(np.real(np.trace(rho_n @ iz)) / nuclear_spin.s)


class TestNuclearPolarizationOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(two_s=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_partial_trace(self, two_s, seed):
        spin = SpinQuantumNumber(two_s)
        dims = (3, spin.dim)
        rho = random_density_matrix(np.random.default_rng(seed), 3 * spin.dim)
        expected = nuclear_polarization_partial_trace(rho, dims, spin)
        assert abs(nuclear_polarization(rho, dims, spin) - expected) <= 1e-15

    def test_dimension_mismatch_rejected(self):
        rho = np.eye(9, dtype=complex) / 9.0
        with pytest.raises(ValueError, match="does not match"):
            nuclear_polarization(rho, (3, 2), SpinQuantumNumber(1))
        with pytest.raises(ValueError, match="does not match"):
            nuclear_polarization(rho, (3, 3), SpinQuantumNumber(1))


class TestElectronPolarizationOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(two_s=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_partial_trace(self, two_s, seed):
        dims = (3, SpinQuantumNumber(two_s).dim)
        rho = random_density_matrix(np.random.default_rng(seed), 3 * dims[1])
        # descending-m basis: index 1 of the electron state is m_s = 0
        expected = float(np.real(partial_trace(rho, 0, dims)[1, 1]))
        assert abs(electron_polarization(rho, dims) - expected) <= 1e-15

    def test_dimension_mismatch_rejected(self):
        rho = np.eye(9, dtype=complex) / 9.0
        with pytest.raises(ValueError, match="does not match"):
            electron_polarization(rho, (3, 2))
        with pytest.raises(ValueError, match="spin 1"):
            electron_polarization(rho, (2, 3))


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        rng = np.random.default_rng(12)
        validate_density_matrix(random_density_matrix(rng, 4))

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(SolverError, match="[Hh]ermitian"):
            validate_density_matrix(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(SolverError, match="[Tt]race"):
            validate_density_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(SolverError):
            validate_density_matrix(rho)
