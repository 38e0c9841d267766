import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvpol import model, solver
from nvpol.model import (
    CalibrationError,
    DissipationParams,
    HyperfineTensor,
    Liouvillian,
    NVSystemParams,
    build_collapse_ops,
    build_hamiltonian,
    build_hyperfine,
    calibrate_pump,
    liouvillian,
    solve_point,
)
from nvpol.solver import evolve, electron_polarization, steady_state
from nvpol.spinops import SpinQuantumNumber, embed, spin_operators


def liouvillian_loop(ham, collapse):
    """Reference generator assembled element by element from the Lindblad
    formula, independent of the Kronecker products in liouvillian().

    Row stacking: element (a, b) of rho sits at index a * n + b.
    """
    ham = np.asarray(ham, dtype=complex)
    n = ham.shape[0]
    out = np.zeros((n * n, n * n), dtype=complex)
    w = -2j * np.pi
    for a in range(n):
        for c in range(n):
            for b in range(n):
                out[a * n + b, c * n + b] += w * ham[a, c]
                out[b * n + a, b * n + c] -= w * ham[c, a]
    for cop, g in collapse:
        cop = np.asarray(cop, dtype=complex)
        cdc = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    cdc[i, j] += np.conj(cop[m, i]) * cop[m, j]
        for a in range(n):
            for c in range(n):
                for b in range(n):
                    for d in range(n):
                        out[a * n + b, c * n + d] += g * cop[a, c] * np.conj(cop[b, d])
                    out[a * n + b, c * n + b] -= 0.5 * g * cdc[a, c]
                    out[b * n + a, b * n + c] -= 0.5 * g * cdc[c, a]
    return out


def bare_params(**kw):
    defaults = dict(
        d_es=1400.0,
        e_es=0.0,
        b_field=(0.0, 0.0, 0.0),
        hyperfine=HyperfineTensor(a_par=0.0, a_perp=0.0),
    )
    defaults.update(kw)
    return NVSystemParams(**defaults)


class TestHamiltonian:
    def test_zero_field_spectrum(self):
        # electron eigenvalues D(m_s^2 - 2/3): {-2D/3, D/3, D/3}, each
        # threefold degenerate over the nucleus
        ham = build_hamiltonian(bare_params())
        evals = np.sort(np.linalg.eigvalsh(ham))
        expected = np.sort([-2 * 1400.0 / 3] * 3 + [1400.0 / 3] * 6)
        assert np.abs(evals - expected).max() < 1e-6 * 1400.0

    def test_strain_splits_upper_levels(self):
        e_strain = 75.0
        ham = build_hamiltonian(bare_params(e_es=e_strain))
        evals = np.sort(np.unique(np.round(np.linalg.eigvalsh(ham), 9)))
        d3 = 1400.0 / 3
        assert evals == pytest.approx([-2 * d3, d3 - e_strain, d3 + e_strain])

    def test_diagonal_crossing_near_eslac(self):
        # m_s = 0 and m_s = -1 diagonal energies cross at B = d_es/gamma_e
        step = 0.5
        fields = np.arange(0.0, 1000.0 + step, step)
        diffs = []
        for b in fields:
            ham = build_hamiltonian(bare_params(b_field=(0.0, 0.0, b)))
            # joint indices at m_I = 0: (m_s=0) -> 4, (m_s=-1) -> 7
            diffs.append((ham[4, 4] - ham[7, 7]).real)
        diffs = np.array(diffs)
        sign_change = np.flatnonzero(np.diff(np.sign(diffs)))
        assert sign_change.size == 1
        b_cross = fields[sign_change[0]]
        p = bare_params()
        assert abs(b_cross - p.d_es / p.gamma_e) <= step

    def test_hermitian_for_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = NVSystemParams(
                d_es=rng.uniform(500, 3000),
                e_es=rng.uniform(-200, 200),
                b_field=tuple(rng.uniform(-800, 800, 3)),
                hyperfine=HyperfineTensor(a_par=rng.uniform(-100, 100),
                                          a_perp=rng.uniform(-100, 100)),
            )
            ham = build_hamiltonian(p)
            assert np.abs(ham - ham.conj().T).max() < 1e-12 * max(1.0, np.abs(ham).max())

    def test_returned_matrix_is_not_shared(self):
        # the embedded spin operators are cached across calls; the
        # Hamiltonian handed out must still be the caller's own array
        p = NVSystemParams(b_field=(0.0, 0.0, 500.0))
        first = build_hamiltonian(p)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(build_hamiltonian(p), expected)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            NVSystemParams(d_es=-5.0)
        with pytest.raises(ValueError):
            NVSystemParams(gamma_n=5.0)  # must stay below gamma_e


class TestHyperfine:
    def test_axial_zero_perp_is_diagonal(self):
        op = build_hyperfine(HyperfineTensor(a_par=40.0, a_perp=0.0), (3, 3))
        assert np.abs(op - np.diag(np.diag(op))).max() == 0.0
        # diagonal entries A m_s m_I in the descending joint basis
        ms = np.repeat([1, 0, -1], 3)
        mi = np.tile([1, 0, -1], 3)
        assert np.allclose(np.diag(op).real, 40.0 * ms * mi)

    def test_flip_flop_matrix_element(self):
        # |<m_s=-1, m_I=+1|H|m_s=0, m_I=0>| = a_perp for S = I = 1
        a_perp = 40.0
        op = build_hyperfine(HyperfineTensor(a_par=40.0, a_perp=a_perp), (3, 3))
        assert abs(op[6, 4]) == pytest.approx(a_perp, rel=1e-12)

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_matches_cartesian_sum_exactly(self, two_s):
        # sum_ij A_ij I_i S_j over A = diag(a_perp, a_perp, a_par), in the
        # same order, skipping zero entries: equal bit for bit
        dims = (3, two_s + 1)
        es = spin_operators(SpinQuantumNumber(2))
        ns = spin_operators(SpinQuantumNumber(two_s))
        s_ops = [embed(op, 0, dims) for op in (es.sx, es.sy, es.sz)]
        i_ops = [embed(op, 1, dims) for op in (ns.sx, ns.sy, ns.sz)]
        rng = np.random.default_rng(two_s)
        draws = [(0.0, 0.0), (40.0, 0.0), (0.0, -23.0)]
        draws += [tuple(rng.uniform(-100.0, 100.0, 2)) for _ in range(5)]
        for a_par, a_perp in draws:
            a = np.diag([a_perp, a_perp, a_par])
            expected = np.zeros((dims[0] * dims[1],) * 2, dtype=np.complex128)
            for i in range(3):
                for j in range(3):
                    if a[i, j] != 0.0:
                        expected += a[i, j] * (i_ops[i] @ s_ops[j])
            op = build_hyperfine(HyperfineTensor(a_par=a_par, a_perp=a_perp), dims)
            assert np.array_equal(op, expected)

    def test_spin_half_nucleus_supported(self):
        op = build_hyperfine(HyperfineTensor(a_par=130.0, a_perp=0.0), (3, 2))
        ms = np.repeat([1, 0, -1], 2)
        mi = np.tile([0.5, -0.5], 3)
        assert np.allclose(np.diag(op).real, 130.0 * ms * mi)


class TestCollapseOps:
    def test_channel_count(self):
        d = DissipationParams(pump_rate=10.0, pump_leak_ratio=0.5,
                              t1_electron=100.0, t1_nuclear=1000.0)
        ops = build_collapse_ops(d, (3, 3))
        assert len(ops) == 4 + 6 + 4

    def test_returned_operators_are_read_only(self):
        # the channels are cached per (DissipationParams, dims); no caller
        # may change the operators the next caller gets
        d = DissipationParams(pump_leak_ratio=0.5)
        ops = build_collapse_ops(d, (3, 3))
        expected = [op.copy() for op, _rate in ops]
        for op, _rate in ops:
            with pytest.raises(ValueError):
                op[:] = 0.0
        again = build_collapse_ops(d, [3, 3])
        assert all(np.array_equal(op, ref) for (op, _rate), ref in zip(again, expected))

    def test_pump_only_has_two_forward_channels(self):
        d = DissipationParams(pump_rate=10.0, pump_leak_ratio=0.0,
                              t1_electron=math.inf, t1_nuclear=math.inf)
        ops = build_collapse_ops(d, (3, 3))
        assert len(ops) == 2
        assert all(rate == 10.0 for _op, rate in ops)

    def test_pump_only_absorbs_into_ms0(self):
        # forward pump alone drives the electron into m_s = 0; the
        # nucleus is untouched so the limit is checked by evolution
        d = DissipationParams(pump_rate=10.0, pump_leak_ratio=0.0,
                              t1_electron=math.inf, t1_nuclear=math.inf)
        p = bare_params(hyperfine=HyperfineTensor(a_par=40.0, a_perp=0.0))
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, (3, 3)))
        rho0 = np.eye(9, dtype=complex) / 9.0
        rho = evolve(rho0, lv, t=5.0)  # 50 pump lifetimes
        assert electron_polarization(rho, (3, 3)) == pytest.approx(1.0, abs=1e-9)

    def test_no_pump_thermalizes_to_maximally_mixed(self):
        d = DissipationParams(pump_rate=0.0, pump_leak_ratio=0.0,
                              t1_electron=100.0, t1_nuclear=1000.0)
        p = bare_params()
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, (3, 3)))
        report = steady_state(lv)
        assert np.abs(report.rho - np.eye(9) / 9.0).max() < 1e-10


class TestLiouvillian:
    def test_zero_hamiltonian_no_collapse(self):
        lv = liouvillian(np.zeros((2, 2), dtype=complex), [])
        assert np.abs(lv.matrix).max() == 0.0

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = rng.integers(2, 5)
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (h + h.conj().T)
            collapse = []
            for _k in range(rng.integers(1, 4)):
                c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                collapse.append((c, float(rng.uniform(0.1, 2.0))))
            lv = liouvillian(h, collapse)
            vec_eye = np.eye(n, dtype=complex).reshape(-1)
            assert np.abs(vec_eye.conj() @ lv.matrix).max() < 1e-10

    def test_trace_preservation_at_nv_scale(self):
        p = NVSystemParams(b_field=(0.0, 0.0, 900.0))
        d = DissipationParams(pump_leak_ratio=0.2)
        lv = liouvillian(build_hamiltonian(p), build_collapse_ops(d, (3, 3)))
        vec_eye = np.eye(9, dtype=complex).reshape(-1)
        scale = np.abs(lv.matrix).max()
        assert np.abs(vec_eye.conj() @ lv.matrix).max() < 1e-10 * scale

    def test_two_level_decay_rate(self):
        gamma = 0.7
        c = np.zeros((2, 2), dtype=complex)
        c[0, 1] = 1.0  # |g><e| with g = 0, e = 1
        lv = liouvillian(np.zeros((2, 2), dtype=complex), [(c, gamma)])
        rho_e = np.diag([0.0, 1.0]).astype(complex)
        drho = (lv.matrix @ rho_e.reshape(-1)).reshape(2, 2)
        assert drho[1, 1] == pytest.approx(-gamma, rel=1e-14)
        assert drho[0, 0] == pytest.approx(gamma, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_matches_loop_oracle_random(self, n):
        rng = np.random.default_rng(40 + n)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (h + h.conj().T)
        collapse = [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
             float(rng.uniform(0.1, 2.0)))
            for _k in range(3)
        ]
        expected = liouvillian_loop(h, collapse)
        got = liouvillian(h, collapse).matrix
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_matches_loop_oracle_nv_model(self):
        p = NVSystemParams(b_field=(0.0, 0.0, 500.0))
        d = DissipationParams(pump_leak_ratio=0.2)
        ham = build_hamiltonian(p)
        collapse = build_collapse_ops(d, p.dims)
        expected = liouvillian_loop(ham, collapse)
        got = liouvillian(ham, collapse).matrix
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            liouvillian(np.zeros((3, 3), dtype=complex), [(np.eye(2), 1.0)])


class TestCachedDissipator:
    @pytest.mark.parametrize("two_s", [1, 2, 3])
    @pytest.mark.parametrize("b_transverse", [0.0, 30.0])
    @pytest.mark.parametrize("t1", [(100.0, 1000.0), (100.0, math.inf), (math.inf, math.inf)])
    def test_matches_loop_oracle_and_plain_list(self, two_s, b_transverse, t1):
        # a transverse field makes H complex; T1 = inf drops channels
        p = NVSystemParams(b_field=(b_transverse, 0.0, 500.0), e_es=70.0,
                           nuclear_spin=SpinQuantumNumber(two_s))
        d = DissipationParams(pump_leak_ratio=0.2, t1_electron=t1[0], t1_nuclear=t1[1])
        ham = build_hamiltonian(p)
        channels = build_collapse_ops(d, p.dims)
        expected = liouvillian_loop(ham, channels)
        got = liouvillian(ham, channels)
        ulp = np.spacing(np.abs(expected).max())
        assert np.abs(got.matrix - expected).max() <= ulp
        plain = liouvillian(ham, [(op, rate) for op, rate in channels])
        assert np.array_equal(plain.matrix, got.matrix)
        assert plain.dissipative_norm == got.dissipative_norm
        direct = Liouvillian(matrix=got.matrix, hilbert_dim=got.hilbert_dim)
        assert got.dissipative_norm == pytest.approx(direct.dissipative_norm, rel=1e-14)

    def test_direct_generator_computes_norm(self):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        lv = Liouvillian(matrix=mat, hilbert_dim=4)
        assert lv.dissipative_norm == np.linalg.norm(0.5 * (mat + mat.conj().T))

    def test_plain_list_checks_every_operator(self):
        ops = [(np.eye(3), 1.0), (np.eye(2), 1.0)]
        with pytest.raises(ValueError, match=r"shape \(2, 2\) does not match"):
            liouvillian(np.zeros((3, 3), dtype=complex), ops)

    def test_channel_set_of_other_dimension_rejected(self):
        channels = build_collapse_ops(DissipationParams(), (3, 2))
        with pytest.raises(ValueError, match="does not match Hamiltonian dimension 9"):
            liouvillian(np.zeros((9, 9), dtype=complex), channels)

    def test_read_only_and_shared_by_equal_params(self, monkeypatch):
        seen = []
        original = model.liouvillian

        def recording(ham, collapse):
            seen.append(collapse)
            return original(ham, collapse)

        monkeypatch.setattr(model, "liouvillian", recording)
        p = NVSystemParams(b_field=(0.0, 0.0, 500.0))
        solve_point(p, DissipationParams(pump_leak_ratio=0.31))
        solve_point(replace(p, b_field=(0.0, 0.0, 510.0)), DissipationParams(pump_leak_ratio=0.31))
        first, second = seen
        assert second.dissipator is first.dissipator
        with pytest.raises(ValueError):
            first.dissipator[0, 0] = 1.0
        # the generator handed out is a copy the caller may change
        lv = original(build_hamiltonian(p), first)
        lv.matrix[0, 0] = 1.0
        assert first.dissipator[0, 0] != 1.0

    def test_cache_stays_bounded_over_calibrations(self):
        p = NVSystemParams()
        d = DissipationParams()
        for target in np.linspace(0.5, 0.9, 50):
            calibrate_pump(float(target), d, p)
        assert model._collapse_ops.cache_info().currsize <= 8


def test_solve_point_calls_each_layer_once(monkeypatch):
    # perfbench's count check requires equal build_hamiltonian,
    # liouvillian and steady_state counts per point (38 of each per
    # strain-map job) until its count rules are refreshed
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((model, "build_hamiltonian"), (model, "build_collapse_ops"),
                         (model, "liouvillian"), (solver, "steady_state"),
                         (solver, "nuclear_polarization"), (solver, "electron_polarization")):
        counted(module, name)
    solve_point(NVSystemParams(b_field=(0.0, 0.0, 500.0)), DissipationParams())
    assert calls == {"build_hamiltonian": 1, "build_collapse_ops": 1, "liouvillian": 1,
                     "steady_state": 1, "nuclear_polarization": 1,
                     "electron_polarization": 1}


def calibration_point_polarization(pump_rate, leak, t1_electron):
    """m_s = 0 population at B = 0, a_perp = 0 from the three-level rate
    balance: (k + g) / (k (1 + 2 r) + 3 g) with g = 1 / (2 T1)."""
    g = 1.0 / (2.0 * t1_electron)
    return (pump_rate + g) / (pump_rate * (1.0 + 2.0 * leak) + 3.0 * g)


calibration_draws = dict(
    pump_rate=st.floats(0.1, 100.0),
    leak=st.floats(0.01, 0.99),
    t1_electron=st.floats(1.0, 1e4),
    e_es=st.floats(-300.0, 300.0),
    a_par=st.floats(-100.0, 100.0),
)


class TestCalibratePump:
    def test_target_one_rejected(self):
        d = DissipationParams()
        with pytest.raises(ValueError):
            calibrate_pump(1.0, d, NVSystemParams())

    def test_unreachable_target_reports_bound(self):
        d = DissipationParams()
        # max achievable at leak 0: (G + r)/(G + 3r) with G = 10, r = 0.005
        bound = (10.0 + 0.005) / (10.0 + 0.015)
        with pytest.raises(CalibrationError) as exc_info:
            calibrate_pump(0.9999, d, NVSystemParams())
        assert exc_info.value.achieved == pytest.approx(bound, abs=1e-6)

    def test_roundtrip_at_080(self):
        d = DissipationParams()
        p = NVSystemParams()
        calibrated = calibrate_pump(0.8, d, p)
        # analytic leak for p0 = (G+r)/(G+3r+2Gl) = 0.8
        leak_expected = ((10.0 + 0.005) / 0.8 - (10.0 + 0.015)) / 20.0
        assert calibrated.pump_leak_ratio == pytest.approx(leak_expected, abs=2e-3)
        p_cal = bare_params(hyperfine=HyperfineTensor(a_par=40.0, a_perp=0.0))
        lv = liouvillian(
            build_hamiltonian(p_cal), build_collapse_ops(calibrated, (3, 3))
        )
        assert electron_polarization(steady_state(lv).rho, (3, 3)) == pytest.approx(
            0.8, abs=1e-3
        )

    def test_infinite_t1_limit_gives_small_leak(self):
        d = DissipationParams(t1_electron=math.inf, t1_nuclear=1000.0)
        calibrated = calibrate_pump(0.999, d, NVSystemParams())
        # r = 0 gives p0 = 1/(1 + 2 leak); 0.999 -> leak ~ 5e-4
        assert calibrated.pump_leak_ratio < 2e-3

    @pytest.mark.parametrize("t1_nuclear", [1e3, 1e6, 1e7, math.inf])
    def test_slow_nuclear_relaxation_calibrates(self, t1_nuclear):
        # at the calibration point only nuclear T1 connects the nuclear
        # levels; a slow or switched-off channel must not make it degenerate
        d = DissipationParams(t1_nuclear=t1_nuclear)
        calibrated = calibrate_pump(0.8, d, NVSystemParams())
        assert calibrated.pump_leak_ratio == 0.125
        assert calibrated.t1_nuclear == t1_nuclear

    def test_zero_pump_unreachable(self):
        d = DissipationParams(pump_rate=0.0)
        with pytest.raises(CalibrationError):
            calibrate_pump(0.8, d, NVSystemParams())

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**calibration_draws, t1_nuclear=st.floats(0.1, 1e4))
    def test_solve_point_matches_rate_balance(self, pump_rate, leak, t1_electron, e_es, a_par,
                                              t1_nuclear):
        # electron polarization at the calibration point does not depend
        # on the nuclear T1 the calibration solves with
        p = NVSystemParams(e_es=e_es, hyperfine=HyperfineTensor(a_par=a_par, a_perp=0.0))
        d = DissipationParams(pump_rate=pump_rate, pump_leak_ratio=leak, t1_electron=t1_electron,
                              t1_nuclear=t1_nuclear)
        expected = calibration_point_polarization(pump_rate, leak, t1_electron)
        assert abs(solve_point(p, d)[1] - expected) <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(**calibration_draws, b_gauss=st.floats(0.0, 1000.0), a_perp=st.floats(0.0, 60.0))
    def test_calibrated_leak_meets_target(self, pump_rate, leak, t1_electron, e_es, a_par,
                                          b_gauss, a_perp):
        # field and a_perp are set to zero by the calibration itself
        p = NVSystemParams(e_es=e_es, b_field=(0.0, 0.0, b_gauss),
                           hyperfine=HyperfineTensor(a_par=a_par, a_perp=a_perp))
        d = DissipationParams(pump_rate=pump_rate, t1_electron=t1_electron)
        target = calibration_point_polarization(pump_rate, leak, t1_electron)
        tol = 1e-6
        calibrated = calibrate_pump(target, d, p, tol=tol)
        achieved = calibration_point_polarization(
            pump_rate, calibrated.pump_leak_ratio, t1_electron)
        assert abs(achieved - target) <= tol


class TestParamValidation:
    def test_dissipation_bounds(self):
        with pytest.raises(ValueError):
            DissipationParams(pump_rate=-1.0)
        with pytest.raises(ValueError):
            DissipationParams(pump_leak_ratio=1.5)
        with pytest.raises(ValueError):
            DissipationParams(t1_electron=0.0)

    def test_nuclear_spin_dim_in_params(self):
        p = NVSystemParams(nuclear_spin=SpinQuantumNumber(1))
        assert p.dims == (3, 2)
