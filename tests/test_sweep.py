import math

import numpy as np
import pytest

import nvpol.sweep as sweep_module
from nvpol.model import DissipationParams, HyperfineTensor, NVSystemParams
from nvpol.solver import SolverError
from nvpol.sweep import (
    StrainDistribution,
    SweepAxis,
    SweepSpec,
    scan_field_strain,
    solve_point,
    strain_averaged_polarization,
    sweep_field,
    temperature_curve,
)

# leak ratio that calibrates the electron polarization to 0.80 for the
# default dissipation parameters (analytic three-level balance)
LEAK_080 = 0.1245625

# Monte Carlo average of the nuclear polarization over e_es ~ N(0, 100 MHz)
# at B = 500 G with the calibrated leak: 1e5 samples, seed 20250819,
# standard error 1.2e-4
MC_STRAIN_AVERAGE = 0.846128267967


def default_spec(axis1, axis2=None, **diss_kw):
    base = NVSystemParams()
    kw = dict(pump_leak_ratio=LEAK_080)
    kw.update(diss_kw)
    return SweepSpec(base=base, dissipation=DissipationParams(**kw), axis1=axis1, axis2=axis2)


class TestSweepAxis:
    def test_values_are_linspace(self):
        ax = SweepAxis("b_axial_gauss", 100.0, 900.0, 5)
        assert np.array_equal(ax.values(), np.linspace(100.0, 900.0, 5))

    def test_bad_name_rejected(self):
        # the hyperfine couplings are set in the system section, not swept
        for name in ("temperature", "a_perp_mhz", "a_par_mhz"):
            with pytest.raises(ValueError, match="axis name"):
                SweepAxis(name, 0.0, 1.0, 2)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            SweepAxis("b_axial_gauss", 0.0, 1.0, 0)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            SweepAxis("b_axial_gauss", 2.0, 1.0, 3)


class TestStrainDistribution:
    def test_defaults(self):
        dist = StrainDistribution()
        assert dist.mean == 0.0 and dist.sigma == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StrainDistribution(sigma=-1.0)
        with pytest.raises(ValueError):
            StrainDistribution(n_quadrature=0)


class TestSweepField:
    def test_single_point_matches_direct_solve(self):
        spec = default_spec(SweepAxis("b_axial_gauss", 500.0, 500.0, 1))
        result = sweep_field(spec)
        from dataclasses import replace

        direct = solve_point(
            replace(spec.base, b_field=(0.0, 0.0, 500.0)), spec.dissipation
        )
        assert result.p_nuclear[0] == direct[0]
        assert result.p_electron[0] == direct[1]
        assert result.status[0] == "ok"

    def test_axial_sweep_keeps_transverse_field(self):
        base = NVSystemParams(b_field=(30.0, 0.0, 100.0))
        spec = SweepSpec(
            base=base,
            dissipation=DissipationParams(pump_leak_ratio=LEAK_080),
            axis1=SweepAxis("b_axial_gauss", 500.0, 500.0, 1),
        )
        result = sweep_field(spec)
        from dataclasses import replace

        direct = solve_point(replace(base, b_field=(30.0, 0.0, 500.0)), spec.dissipation)
        assert result.p_nuclear[0] == direct[0]
        assert result.p_electron[0] == direct[1]
        assert result.residual[0] == direct[2].residual_norm
        # the transverse field matters here: axial-only gives P_n near 1
        axial, _, _ = solve_point(replace(base, b_field=(0.0, 0.0, 500.0)), spec.dissipation)
        assert abs(result.p_nuclear[0] - axial) > 0.5

    def test_polarization_peaks_at_level_anticrossing(self):
        spec = default_spec(SweepAxis("b_axial_gauss", 100.0, 900.0, 3))
        result = sweep_field(spec)
        p100, p500, p900 = result.p_nuclear
        assert result.n_failed == 0
        assert p500 > p100
        assert p500 > p900
        assert p500 > 0.8

    def test_no_transfer_without_flip_flop(self):
        base = NVSystemParams(hyperfine=HyperfineTensor(a_par=40.0, a_perp=0.0))
        # 3 kG to 30 kG: the Liouvillian norm grows with the field, so a
        # state taken from an SVD null vector drifts above the bound there,
        # and a null-space threshold scaled by that norm calls it degenerate
        for axis in (SweepAxis("b_axial_gauss", 100.0, 900.0, 3),
                     SweepAxis("b_axial_gauss", 3000.0, 10000.0, 2),
                     SweepAxis("b_axial_gauss", 30000.0, 30000.0, 1)):
            spec = SweepSpec(
                base=base,
                dissipation=DissipationParams(pump_leak_ratio=LEAK_080),
                axis1=axis,
            )
            result = sweep_field(spec)
            assert np.abs(result.p_nuclear).max() < 1e-9

    def test_failed_points_are_recorded_not_raised(self):
        spec = default_spec(
            SweepAxis("b_axial_gauss", 100.0, 900.0, 3),
            pump_rate=0.0,
            pump_leak_ratio=0.0,
            t1_electron=math.inf,
            t1_nuclear=math.inf,
        )
        result = sweep_field(spec)
        assert result.n_failed == 3
        assert all(s == "DegenerateSteadyState" for s in result.status)
        assert np.all(np.isnan(result.p_nuclear))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            sweep_field(default_spec(SweepAxis("e_es_mhz", 0.0, 1.0, 2)))
        spec2 = default_spec(
            SweepAxis("b_axial_gauss", 0.0, 1.0, 2),
            )
        spec2 = SweepSpec(
            base=spec2.base,
            dissipation=spec2.dissipation,
            axis1=spec2.axis1,
            axis2=SweepAxis("e_es_mhz", 0.0, 1.0, 2),
        )
        with pytest.raises(ValueError):
            sweep_field(spec2)


class TestScanFieldStrain:
    def test_zero_strain_column_matches_field_sweep(self):
        ax_b = SweepAxis("b_axial_gauss", 300.0, 700.0, 3)
        ax_e = SweepAxis("e_es_mhz", 0.0, 80.0, 2)
        scan = scan_field_strain(default_spec(ax_b, ax_e))
        line = sweep_field(default_spec(ax_b))
        assert np.array_equal(scan.p_nuclear[:, 0], line.p_nuclear)
        assert np.array_equal(scan.p_electron[:, 0], line.p_electron)

    def test_strain_sign_symmetry(self):
        base = NVSystemParams(e_es=0.0)
        for b in (300.0, 500.0):
            from dataclasses import replace

            params = replace(base, b_field=(0.0, 0.0, b))
            plus, _, _ = solve_point(replace(params, e_es=40.0), DissipationParams(pump_leak_ratio=LEAK_080))
            minus, _, _ = solve_point(replace(params, e_es=-40.0), DissipationParams(pump_leak_ratio=LEAK_080))
            assert plus == pytest.approx(minus, abs=1e-8)

    def test_requires_field_strain_axes(self):
        ax_b = SweepAxis("b_axial_gauss", 300.0, 700.0, 3)
        with pytest.raises(ValueError):
            scan_field_strain(default_spec(ax_b))
        wrong = SweepSpec(
            base=NVSystemParams(),
            dissipation=DissipationParams(),
            axis1=SweepAxis("e_es_mhz", 0.0, 1.0, 2),
            axis2=SweepAxis("b_axial_gauss", 0.0, 1.0, 2),
        )
        with pytest.raises(ValueError):
            scan_field_strain(wrong)

    def test_strain_reduces_polarization(self):
        ax_b = SweepAxis("b_axial_gauss", 500.0, 500.0, 1)
        ax_e = SweepAxis("e_es_mhz", 0.0, 200.0, 3)
        scan = scan_field_strain(default_spec(ax_b, ax_e))
        row = scan.p_nuclear[0]
        assert row[0] > row[1] > row[2]


class TestThreadsAndCheckpoint:
    def test_checkpoint_roundtrip_and_resume(self, tmp_path):
        spec = default_spec(SweepAxis("b_axial_gauss", 100.0, 900.0, 5))
        reference = sweep_field(spec)

        ckpt = tmp_path / "sweep.ckpt"
        first = sweep_field(spec, checkpoint_path=str(ckpt))
        assert np.array_equal(first.p_nuclear, reference.p_nuclear)
        lines = ckpt.read_text().splitlines()
        assert lines[0] == "# nvpol checkpoint v1"
        assert lines[1].startswith("# params ")
        assert len(lines) == 2 + 5

        # truncate to two completed rows plus a torn third line, as if the
        # process died mid-write, then resume
        truncated = "\n".join(lines[:4]) + "\n" + lines[4][: len(lines[4]) // 2]
        ckpt.write_text(truncated)
        resumed = sweep_field(spec, checkpoint_path=str(ckpt))
        assert np.array_equal(resumed.p_nuclear, reference.p_nuclear)
        assert np.array_equal(resumed.p_electron, reference.p_electron)
        assert np.array_equal(resumed.residual, reference.residual)

    @pytest.mark.parametrize("cut", ["status", "number"])
    def test_resume_after_torn_row(self, tmp_path, monkeypatch, cut):
        spec = default_spec(SweepAxis("b_axial_gauss", 100.0, 900.0, 6))
        reference = sweep_field(spec)
        ckpt = tmp_path / "sweep.ckpt"
        sweep_field(spec, checkpoint_path=str(ckpt))
        full = ckpt.read_text()
        lines = full.splitlines(keepends=True)
        # stop the run while it writes the fourth row: inside its status
        # ("ok" left as "o") or inside its electron polarization
        torn = lines[5]
        if cut == "status":
            torn = torn[: -len("k\n")]
        else:
            torn = " ".join(torn.split()[:5]) + " " + torn.split()[5][:6]
        ckpt.write_text("".join(lines[:5]) + torn)

        resumed = sweep_field(spec, checkpoint_path=str(ckpt))
        for name in ("p_nuclear", "p_electron", "residual"):
            assert np.array_equal(getattr(resumed, name), getattr(reference, name))
        assert list(resumed.status) == ["ok"] * 6
        assert ckpt.read_text() == full

        solved = []

        def counting_solve(*args):
            solved.append(args)
            return solve_point(*args)

        monkeypatch.setattr(sweep_module, "solve_point", counting_solve)
        again = sweep_field(spec, checkpoint_path=str(ckpt))
        assert solved == []
        assert np.array_equal(again.p_nuclear, reference.p_nuclear)
        assert list(again.status) == ["ok"] * 6
        assert ckpt.read_text() == full

    def test_checkpoint_with_threads_stays_prefix_ordered(self, tmp_path):
        spec = default_spec(SweepAxis("b_axial_gauss", 100.0, 900.0, 6))
        ckpt = tmp_path / "sweep.ckpt"
        result = sweep_field(spec, checkpoint_path=str(ckpt))
        lines = ckpt.read_text().splitlines()
        flat_indices = [int(line.split()[0]) for line in lines[2:]]
        assert flat_indices == sorted(flat_indices)
        serial = sweep_field(spec)
        assert np.array_equal(result.p_nuclear, serial.p_nuclear)

    def test_checkpoint_rejects_other_parameters(self, tmp_path):
        ax = SweepAxis("b_axial_gauss", 100.0, 900.0, 3)
        ckpt = tmp_path / "sweep.ckpt"
        sweep_field(default_spec(ax), checkpoint_path=str(ckpt))
        other = default_spec(ax, pump_leak_ratio=0.5)
        with pytest.raises(ValueError, match="different sweep parameters"):
            sweep_field(other, checkpoint_path=str(ckpt))

    def test_checkpoint_rejects_foreign_file(self, tmp_path):
        ckpt = tmp_path / "notes.txt"
        ckpt.write_text("hello\nworld\n")
        spec = default_spec(SweepAxis("b_axial_gauss", 100.0, 900.0, 3))
        with pytest.raises(ValueError, match="not a recognized checkpoint"):
            sweep_field(spec, checkpoint_path=str(ckpt))


class TestStrainAveraged:
    def setup_method(self):
        from dataclasses import replace

        self.params = replace(NVSystemParams(), b_field=(0.0, 0.0, 500.0))
        self.diss = DissipationParams(pump_leak_ratio=LEAK_080)

    def test_zero_sigma_is_exact_point(self):
        dist = StrainDistribution(mean=30.0, sigma=0.0)
        from dataclasses import replace

        direct, _, _ = solve_point(replace(self.params, e_es=30.0), self.diss)
        assert strain_averaged_polarization(self.params, self.diss, dist) == direct

    def test_no_transfer_without_flip_flop(self):
        from dataclasses import replace

        params = replace(
            self.params, hyperfine=HyperfineTensor(a_par=40.0, a_perp=0.0)
        )
        dist = StrainDistribution(mean=0.0, sigma=50.0, n_quadrature=16)
        assert abs(strain_averaged_polarization(params, self.diss, dist)) < 1e-9

    def test_matches_monte_carlo_average(self):
        dist = StrainDistribution(mean=0.0, sigma=100.0, n_quadrature=64)
        value = strain_averaged_polarization(self.params, self.diss, dist)
        assert value == pytest.approx(MC_STRAIN_AVERAGE, abs=5e-4)

    def test_quadrature_converged_at_32_nodes(self):
        v32 = strain_averaged_polarization(
            self.params, self.diss, StrainDistribution(sigma=100.0, n_quadrature=32)
        )
        v64 = strain_averaged_polarization(
            self.params, self.diss, StrainDistribution(sigma=100.0, n_quadrature=64)
        )
        assert abs(v64 - v32) < 5e-4

    def test_node_failure_is_wrapped(self):
        bad = DissipationParams(
            pump_rate=0.0, t1_electron=math.inf, t1_nuclear=math.inf
        )
        dist = StrainDistribution(sigma=10.0, n_quadrature=4)
        with pytest.raises(SolverError, match="quadrature node"):
            strain_averaged_polarization(self.params, bad, dist)


class TestTemperatureCurve:
    def setup_method(self):
        from dataclasses import replace

        self.params = replace(NVSystemParams(), b_field=(0.0, 0.0, 500.0))
        self.diss = DissipationParams(pump_leak_ratio=LEAK_080)

    def test_single_row_matches_direct_average(self):
        dist = StrainDistribution(sigma=40.0, n_quadrature=16)
        rows = temperature_curve(self.params, self.diss, [(300.0, dist)])
        assert rows == [
            (300.0, strain_averaged_polarization(self.params, self.diss, dist), "ok")
        ]

    def test_broadening_strain_lowers_polarization(self):
        table = [
            (200.0, StrainDistribution(sigma=0.0)),
            (300.0, StrainDistribution(sigma=60.0, n_quadrature=24)),
            (400.0, StrainDistribution(sigma=150.0, n_quadrature=24)),
        ]
        rows = temperature_curve(self.params, self.diss, table)
        temps = [t for t, _, _ in rows]
        pols = [p for _, p, _ in rows]
        assert temps == [200.0, 300.0, 400.0]
        assert pols[0] > pols[1] > pols[2]
        assert all(status == "ok" for _, _, status in rows)

    def test_failed_row_is_recorded_not_raised(self):
        bad = DissipationParams(
            pump_rate=0.0, t1_electron=math.inf, t1_nuclear=math.inf
        )
        table = [
            (300.0, StrainDistribution(sigma=0.0)),
            (200.0, StrainDistribution(sigma=10.0, n_quadrature=4)),
        ]
        rows = temperature_curve(self.params, bad, table)
        assert [(t, status) for t, _, status in rows] == [
            (300.0, "DegenerateSteadyState"),
            (200.0, "SolverError"),
        ]
        assert all(math.isnan(p) for _, p, _ in rows)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            temperature_curve(self.params, self.diss, [])
