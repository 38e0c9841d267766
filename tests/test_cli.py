"""End-to-end tests for the nvpol command line driver.

Each test writes a YAML config into tmp_path and drives main() in
process, checking exit codes, output files, and byte-level determinism.
One subprocess test generates the `nvpol` console script from the
`[project.scripts]` declaration in pyproject.toml, the way pip writes it
at install time, and runs it against the source under test.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import nvpol
from nvpol import config
from nvpol.cli import main
from nvpol.odmr import LorentzianPeak, PeakSet, model_spectrum

# pump_leak_ratio solving p_electron = 0.8 for the default pump and T1
LEAK_080 = 0.1245625

STEADY_YAML = f"""\
system:
  d_es_mhz: 1400.0
  b_axial_gauss: 499.6
dissipation:
  pump_rate_mhz: 10.0
  pump_leak_ratio: {LEAK_080}
"""

SWEEP_YAML = STEADY_YAML + """\
sweep:
  axis1: {parameter: b_axial_gauss, start: 400.0, stop: 600.0, count: 3}
"""

SCAN_YAML = STEADY_YAML + """\
sweep:
  axis1: {parameter: b_axial_gauss, start: 400.0, stop: 600.0, count: 3}
  axis2: {parameter: e_es_mhz, start: 0.0, stop: 200.0, count: 3}
"""

SYNTH_YAML = """\
seed: 7
synth:
  kind: odmr
  grid: {start_mhz: 1300.0, stop_mhz: 1500.0, count: 64}
  noise: 0.002
  baseline: 0.01
  peaks:
    - {center_mhz: 1380.0, fwhm_mhz: 8.0, amplitude: 0.05}
    - {center_mhz: 1420.0, fwhm_mhz: 8.0, amplitude: 0.03}
"""


class PurePythonLoader(yaml.SafeLoader):
    """The config loader's resolver table on PyYAML's pure-Python base:
    the reference for the libyaml base the program takes when it can."""

    yaml_implicit_resolvers = config._Loader.yaml_implicit_resolvers


def parsed(text, loader):
    """repr of the loaded document (it tells 500 from 500.0), or the
    failure when the text is not valid YAML."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return "YAMLError"


def write_config(tmp_path, text, name="run.yaml"):
    # every config a test writes reads the same with both loader bases
    assert parsed(text, config._Loader) == parsed(text, PurePythonLoader)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(path):
    """Parse a key/value report file up to the first matrix section."""
    fields = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        parts = line.split()
        if parts and parts[0] in ("rho_real", "rho_imag"):
            break
        if len(parts) >= 2:
            fields[parts[0]] = parts[1]
    return fields


class TestSteady:
    def test_report_fields(self, tmp_path):
        cfg = write_config(tmp_path, STEADY_YAML)
        out = tmp_path / "out"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        report = out / "steady_state.txt"
        fields = read_report(report)
        assert fields["hilbert_dim"] == "9"
        assert fields["null_space_dim"] == "1"
        assert float(fields["residual_norm"]) < 1e-9
        assert float(fields["p_nuclear"]) > 0.8
        assert float(fields["p_electron"]) == pytest.approx(0.8, abs=0.05)
        # density matrix dumped as two 9x9 blocks
        lines = report.read_text().splitlines()
        i_re = lines.index("rho_real")
        i_im = lines.index("rho_imag")
        assert i_im - i_re == 10 and len(lines) == i_im + 10
        row = np.fromstring(lines[i_re + 1], sep=" ")
        assert row.size == 9

    def test_nested_out_dir_created(self, tmp_path):
        cfg = write_config(tmp_path, STEADY_YAML)
        out = tmp_path / "a" / "b" / "c"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "steady_state.txt").exists()

    def test_no_flip_flop_stays_unpolarized(self, tmp_path):
        text = STEADY_YAML.replace(
            "system:\n",
            "system:\n  a_par_mhz: 40.0\n  a_perp_mhz: 0.0\n",
        )
        cfg = write_config(tmp_path, text, name="noflip.yaml")
        out = tmp_path / "noflip"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        fields = read_report(out / "steady_state.txt")
        assert abs(float(fields["p_nuclear"])) <= 1e-6

    def test_calibrated_pump_from_config(self, tmp_path):
        text = """\
system:
  b_axial_gauss: 499.6
dissipation:
  pump_rate_mhz: 10.0
  calibrate_electron_polarization: 0.8
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "cal"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        fields = read_report(out / "steady_state.txt")
        assert float(fields["p_electron"]) == pytest.approx(0.8, abs=2e-3)

    def test_calibration_with_nuclear_channel_off(self, tmp_path):
        text = """\
system:
  b_axial_gauss: 499.6
dissipation:
  pump_rate_mhz: 10.0
  t1_nuclear_us: .inf
  calibrate_electron_polarization: 0.8
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "cal"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        fields = read_report(out / "steady_state.txt")
        assert float(fields["p_electron"]) == pytest.approx(0.8, abs=2e-3)


class TestConfigErrors:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # a misspelled nested key, a top-level strain section (strain
        # belongs under synth or in temperature_table rows), the removed
        # fit.jacobian switch, and the removed full hyperfine tensor
        for k, text in enumerate((
            "system:\n  d_es_mz: 1400.0\n",
            "strain: {mean_mhz: 0.0, sigma_mhz: 50.0, n_quadrature: 32}\n",
            "fit: {jacobian: numeric}\n",
            "system:\n  hyperfine_matrix_mhz: [[40, 0, 0], [0, 40, 0], [0, 0, 40]]\n",
        )):
            cfg = write_config(tmp_path, text, name=f"run{k}.yaml")
            out = tmp_path / f"out{k}"
            assert main(["steady", "--config", cfg, "--out", str(out)]) == 2
            record = json.loads(capsys.readouterr().err.splitlines()[0])
            assert record["error"] == "ConfigError"
            assert "unknown key" in record["detail"]
            assert not out.exists()

    def test_non_finite_and_non_numeric_values_exit_2(self, tmp_path, capsys):
        for k, (text, key) in enumerate((
            ("system:\n  b_axial_gauss: .nan\n", "b_axial_gauss"),
            ("system:\n  a_perp_mhz: .inf\n", "a_perp_mhz"),
            ("system:\n  d_es_mhz: -.inf\n", "d_es_mhz"),
            ("system:\n  b_axial_gauss: 1" + "0" * 400 + "\n", "b_axial_gauss"),
            ("dissipation:\n  pump_rate_mhz: .inf\n", "pump_rate_mhz"),
            ("dissipation:\n  t1_electron_us: .nan\n", "t1_electron_us"),
            ('system:\n  a_par_mhz: "40"\n', "a_par_mhz"),
            (STEADY_YAML + "sweep:\n  axis1: {parameter: b_axial_gauss, start: .nan, "
             "stop: 600.0, count: 3}\n", "sweep.axis1.start"),
        )):
            cfg = write_config(tmp_path, text, name=f"run{k}.yaml")
            out = tmp_path / f"out{k}"
            ckpt = tmp_path / f"ckpt{k}.txt"
            args = ["sweep-b", "--checkpoint", str(ckpt)] if "sweep" in text else ["steady"]
            assert main(args + ["--config", cfg, "--out", str(out)]) == 2
            record = json.loads(capsys.readouterr().err.splitlines()[0])
            assert record["error"] == "ConfigError"
            assert f"'{key}'" in record["detail"]
            assert not out.exists()
            assert not ckpt.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        assert main(["steady", "--config", missing, "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["error"] == "ConfigError"

    def test_invalid_yaml(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "system: {d_es_mhz: 1400\n")
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_sweep_requires_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STEADY_YAML)
        assert main(["sweep-b", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "axis1" in json.loads(capsys.readouterr().err)["detail"]

    def test_scan_requires_second_axis(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_YAML)
        assert main(["scan-2d", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "axis2" in json.loads(capsys.readouterr().err)["detail"]

    def test_temperature_requires_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STEADY_YAML)
        assert main(["temperature", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "temperature_table" in json.loads(capsys.readouterr().err)["detail"]

    def test_unknown_command_uses_argparse_code(self, tmp_path, capsys):
        assert main(["make-coffee", "--config", "x.yaml"]) == 2
        capsys.readouterr()

    def test_successive_calls_act_fresh(self, tmp_path, capsys):
        # one parser serves every call in a process; no option or command
        # of an earlier call may leak into a later one
        cfg = write_config(tmp_path, SYNTH_YAML.replace("seed: 7", "seed: 7\nfit: {n_peaks: 2}"))
        assert main(["synth", "--out", str(tmp_path)]) == 2
        assert "--config" in capsys.readouterr().err
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert "# seed 3\n" in (tmp_path / "a" / "synth_spectrum.txt").read_text()
        assert "# seed 7\n" in (tmp_path / "b" / "synth_spectrum.txt").read_text()
        spectrum = str(tmp_path / "b" / "synth_spectrum.txt")
        assert main(["fit-odmr", "--config", cfg, "--out", str(tmp_path / "fit"), spectrum]) == 0
        assert "converged true" in (tmp_path / "fit" / "fit_odmr.txt").read_text()
        assert not (tmp_path / "fit" / "synth_spectrum.txt").exists()
        assert main(["fit-odmr", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
        assert "spectrum" in capsys.readouterr().err

    def test_exponent_without_point_is_a_number(self, tmp_path, capsys):
        # YAML 1.2 reads 5e2 as a float; a quoted "5e2" stays a string
        outputs = []
        for k, value in enumerate(("500.0", "5e2")):
            text = STEADY_YAML.replace("b_axial_gauss: 499.6", f"b_axial_gauss: {value}")
            cfg = write_config(tmp_path, text, name=f"run{k}.yaml")
            out = tmp_path / f"out{k}"
            assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out / "steady_state.txt").read_bytes())
        assert outputs[0] == outputs[1]
        text = STEADY_YAML.replace("b_axial_gauss: 499.6", 'b_axial_gauss: "5e2"')
        cfg = write_config(tmp_path, text, name="quoted.yaml")
        assert main(["steady", "--config", cfg, "--out", str(tmp_path / "q")]) == 2
        record = json.loads(capsys.readouterr().err.splitlines()[0])
        assert record["error"] == "ConfigError"
        assert "'b_axial_gauss'" in record["detail"]


class TestConfigLoader:
    def test_libyaml_base_when_present(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert config._Loader.__bases__ == (base,)

    @pytest.mark.parametrize("scalar", [
        "5e2", '"5e2"', "5.0e2", "+1e3", "-2.5E-3", ".5", "1.", ".inf", "-.inf", ".nan",
        "500", "-3", "+7", "0", "1_000", "0x1f", "017", "0b101", "1" + "0" * 40,
        "true", "null", "~", "1400 MHz",
    ])
    def test_scalars_match_pure_python_base(self, scalar):
        text = f"value: {scalar}\nrow: [{scalar}, {{k: {scalar}}}]\n"
        assert parsed(text, config._Loader) == parsed(text, PurePythonLoader)

    def test_acceptance_configs_match_pure_python_base(self):
        import test_acceptance

        texts = [v for k, v in vars(test_acceptance).items() if k.startswith("CLI_")]
        assert len(texts) == 6
        for text in texts:
            assert parsed(text, config._Loader) == parsed(text, PurePythonLoader)


class TestSweepB:
    def test_csv_shape_and_values(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_YAML)
        out = tmp_path / "out"
        assert main(["sweep-b", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep_b.csv").read_text().splitlines()
        assert lines[0] == "b_gauss,nuclear_polarization,electron_polarization,residual,status"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [400.0, 500.0, 600.0]
        assert all(r[4] == "ok" for r in rows)
        p = [float(r[1]) for r in rows]
        assert p[1] > p[0] and p[1] > p[2]  # peaked near the crossing
        plot = (out / "sweep_b_plot.dat").read_text().splitlines()
        assert len(plot) == 3
        b0, p0 = plot[0].split()
        assert (b0, p0) == (rows[0][0], rows[0][1])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_YAML)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep-b", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep-b", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep_b.csv").read_bytes() == (out2 / "sweep_b.csv").read_bytes()
        assert (out1 / "sweep_b_plot.dat").read_bytes() == (out2 / "sweep_b_plot.dat").read_bytes()

    def test_threads_match_serial(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_YAML)
        out1, out2 = tmp_path / "serial", tmp_path / "threaded"
        assert main(["sweep-b", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep-b", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
        assert (out1 / "sweep_b.csv").read_bytes() == (out2 / "sweep_b.csv").read_bytes()

    def test_checkpoint_resume(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_YAML)
        ckpt = tmp_path / "sweep.ckpt"
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        args = ["sweep-b", "--config", cfg, "--checkpoint", str(ckpt)]
        assert main(args + ["--out", str(out1)]) == 0
        text = ckpt.read_text().splitlines()
        assert text[0] == "# nvpol checkpoint v1"
        assert len(text) == 5  # magic + params + 3 rows
        # second run resumes from the complete checkpoint
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "sweep_b.csv").read_bytes() == (out2 / "sweep_b.csv").read_bytes()

    def test_all_points_failed_exits_4(self, tmp_path):
        text = """\
system:
  b_axial_gauss: 499.6
dissipation:
  pump_rate_mhz: 0.0
  t1_electron_us: .inf
  t1_nuclear_us: .inf
sweep:
  axis1: {parameter: b_axial_gauss, start: 400.0, stop: 600.0, count: 3}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep-b", "--config", cfg, "--out", str(out)]) == 4
        lines = (out / "sweep_b.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert all(r[4] == "DegenerateSteadyState" for r in rows)
        assert all(r[1] == "nan" for r in rows)


class TestScan2d:
    def test_row_major_grid(self, tmp_path):
        cfg = write_config(tmp_path, SCAN_YAML)
        out = tmp_path / "out"
        assert main(["scan-2d", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "scan_2d.csv").read_text().splitlines()
        assert lines[0] == (
            "b_gauss,e_es_mhz,nuclear_polarization,electron_polarization,residual,status"
        )
        assert len(lines) == 10
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows[:3]] == [400.0, 400.0, 400.0]
        assert [float(r[1]) for r in rows[:3]] == [0.0, 100.0, 200.0]
        assert all(r[5] == "ok" for r in rows)
        # strain suppresses the transfer at fixed field
        p_row = [float(r[2]) for r in rows[3:6]]  # b = 500 block
        assert p_row[0] > p_row[1] > p_row[2]
        plot = (out / "scan_2d_plot.dat").read_text().splitlines()
        assert len(plot) == 9


class TestTemperature:
    def test_curve_csv(self, tmp_path):
        text = STEADY_YAML + """\
temperature_table:
  - {temperature_k: 300.0, mean_mhz: 30.0, sigma_mhz: 0.0}
  - {temperature_k: 200.0, mean_mhz: 30.0, sigma_mhz: 60.0, n_quadrature: 8}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["temperature", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "temperature.csv").read_text().splitlines()
        assert lines[0] == "temperature_k,nuclear_polarization,status"
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [300.0, 200.0]
        assert all(r[2] == "ok" for r in rows)
        # broader strain at low temperature costs polarization
        assert float(rows[0][1]) > float(rows[1][1])
        assert len((out / "temperature_plot.dat").read_text().splitlines()) == 2

    def test_all_rows_failed_exits_4(self, tmp_path):
        text = """\
system:
  b_axial_gauss: 500.0
dissipation:
  pump_rate_mhz: 0.0
  t1_electron_us: .inf
  t1_nuclear_us: .inf
temperature_table:
  - {temperature_k: 300.0, mean_mhz: 0.0, sigma_mhz: 0.0}
  - {temperature_k: 200.0, mean_mhz: 0.0, sigma_mhz: 60.0, n_quadrature: 4}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["temperature", "--config", cfg, "--out", str(out)]) == 4
        assert (out / "temperature.csv").read_text().splitlines() == [
            "temperature_k,nuclear_polarization,status",
            "300,nan,DegenerateSteadyState",
            "200,nan,SolverError",
        ]
        assert (out / "temperature_plot.dat").read_text() == "300 nan\n200 nan\n"


class TestSynth:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH_YAML)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["synth", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["synth", "--config", cfg, "--out", str(out2)]) == 0
        data = (out1 / "synth_spectrum.txt").read_bytes()
        assert data == (out2 / "synth_spectrum.txt").read_bytes()
        head = data.decode().splitlines()[:4]
        assert head[1] == "# kind odmr"
        assert head[2] == "# seed 7"

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH_YAML)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["synth", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["synth", "--config", cfg, "--out", str(out2), "--seed", "8"]) == 0
        d1 = (out1 / "synth_spectrum.txt").read_text()
        d2 = (out2 / "synth_spectrum.txt").read_text()
        assert d1 != d2
        assert "# seed 8" in d2

    def test_zero_noise_matches_model(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH_YAML.replace("noise: 0.002", "noise: 0.0"))
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        raw = np.loadtxt(out / "synth_spectrum.txt")
        grid = np.linspace(1300.0, 1500.0, 64)
        peaks = PeakSet(
            peaks=(
                LorentzianPeak(center=1380.0, fwhm=8.0, amplitude=0.05),
                LorentzianPeak(center=1420.0, fwhm=8.0, amplitude=0.03),
            ),
            baseline=0.01,
        )
        expected = model_spectrum(peaks, grid).contrast
        assert np.array_equal(raw[:, 0], grid)  # %.17g round-trips exactly
        assert np.array_equal(raw[:, 1], expected)

    def test_esodmr_kind(self, tmp_path):
        text = """\
synth:
  kind: esodmr
  grid: {start_mhz: 1100.0, stop_mhz: 1700.0, count: 121}
  d_es_mhz: 1400.0
  natural_fwhm_mhz: 5.0
  amplitude: 0.04
  strain: {mean_mhz: 0.0, sigma_mhz: 50.0, n_quadrature: 32}
"""
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        raw = np.loadtxt(out / "synth_spectrum.txt")
        peak_freq = raw[np.argmax(raw[:, 1]), 0]
        assert abs(peak_freq - 1400.0) < 20.0

    def test_esodmr_subnormal_sigma_is_lorentzian(self, tmp_path):
        text = """\
synth:
  kind: esodmr
  grid: {start_mhz: 1300.0, stop_mhz: 1500.0, count: 101}
  d_es_mhz: 1400.0
  natural_fwhm_mhz: 5.0
  amplitude: 0.04
  strain: {mean_mhz: 10.0, sigma_mhz: SIGMA}
"""
        spectra = []
        for sigma in ("1.0e-310", "0.0"):
            cfg = write_config(tmp_path, text.replace("SIGMA", sigma), name=f"{sigma}.yaml")
            out = tmp_path / sigma
            assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
            spectra.append((out / "synth_spectrum.txt").read_bytes())
        assert np.isfinite(np.loadtxt(tmp_path / "1.0e-310" / "synth_spectrum.txt")).all()
        assert spectra[0] == spectra[1]


FIT_TRIPLET_YAML = """\
seed: 11
synth:
  kind: odmr
  grid: {start_mhz: 1300.0, stop_mhz: 1500.0, count: 401}
  noise: 0.0003
  baseline: 0.005
  peaks:
    - {center_mhz: 1385.0, fwhm_mhz: 6.0, amplitude: 0.036}
    - {center_mhz: 1400.0, fwhm_mhz: 6.0, amplitude: 0.002}
    - {center_mhz: 1415.0, fwhm_mhz: 6.0, amplitude: 0.002}
fit:
  n_peaks: 3
  m_values: [1.0, 0.0, -1.0]
"""

# acceptance criterion 7's 14N triplet at SNR 50 (true P = 0.80)
CRITERION_7_YAML = """\
synth:
  kind: odmr
  grid: {start_mhz: 1392.0, stop_mhz: 1408.0, count: 321}
  noise: 0.0005132729664589743
  baseline: 0.0
  peaks:
    - {center_mhz: 1397.84, fwhm_mhz: 1.0, amplitude: 0.0255}
    - {center_mhz: 1400.0, fwhm_mhz: 1.0, amplitude: 0.003}
    - {center_mhz: 1402.16, fwhm_mhz: 1.0, amplitude: 0.0015}
fit:
  n_peaks: 3
  m_values: [1, 0, -1]
"""

ESODMR_FIT_YAML = """\
synth:
  kind: esodmr
  grid: {start_mhz: 1100.0, stop_mhz: 1700.0, count: 401}
  d_es_mhz: 1400.0
  natural_fwhm_mhz: 5.0
  amplitude: 0.04
  strain: {mean_mhz: 0.0, sigma_mhz: 50.0, n_quadrature: 32}
fit:
  d_es_mhz: 1400.0
  natural_fwhm_mhz: 5.0
"""


class TestFitPipeline:
    def synth_spectrum(self, tmp_path, yaml_text, seed=None):
        cfg = write_config(tmp_path, yaml_text, name="synth.yaml")
        out = tmp_path / "data"
        seed_args = [] if seed is None else ["--seed", str(seed)]
        assert main(["synth", "--config", cfg, "--out", str(out)] + seed_args) == 0
        return cfg, str(out / "synth_spectrum.txt")

    def test_synth_then_fit_odmr(self, tmp_path):
        cfg, spectrum = self.synth_spectrum(tmp_path, FIT_TRIPLET_YAML)
        out = tmp_path / "fit"
        code = main(["fit-odmr", "--config", cfg, "--out", str(out), spectrum])
        assert code == 0
        fields = read_report(out / "fit_odmr.txt")
        assert fields["converged"] == "true"
        p_true = (0.036 - 0.002) / 0.04
        assert float(fields["polarization"]) == pytest.approx(p_true, abs=0.02)

    def test_max_iter_one_exits_3(self, tmp_path):
        text = FIT_TRIPLET_YAML + "  max_iter: 1\n"
        cfg, spectrum = self.synth_spectrum(tmp_path, text)
        out = tmp_path / "fit"
        code = main(["fit-odmr", "--config", cfg, "--out", str(out), spectrum])
        assert code == 3
        assert "converged false" in (out / "fit_odmr.txt").read_text()

    def test_amplitude_on_bound_converges(self, tmp_path):
        # criterion 7's triplet; with this seed the prominence-seeded
        # refinement pins an amplitude at 0, and the clipped steps used
        # to stall it at max_iter (exit 3)
        cfg, spectrum = self.synth_spectrum(tmp_path, CRITERION_7_YAML, seed=2523284998)
        out = tmp_path / "fit"
        code = main(["fit-odmr", "--config", cfg, "--out", str(out), spectrum])
        assert code == 0
        fields = read_report(out / "fit_odmr.txt")
        assert fields["converged"] == "true"
        assert int(fields["iterations"]) < 200
        assert float(fields["polarization"]) == pytest.approx(0.8, abs=0.1)

    def test_m_values_mismatch_exits_2(self, tmp_path, capsys):
        text = FIT_TRIPLET_YAML.replace("m_values: [1.0, 0.0, -1.0]", "m_values: [1.0, -1.0]")
        cfg, spectrum = self.synth_spectrum(tmp_path, text)
        code = main(["fit-odmr", "--config", cfg, "--out", str(tmp_path), spectrum])
        assert code == 2
        assert "m_values" in json.loads(capsys.readouterr().err)["detail"]

    def test_short_spectrum_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIT_TRIPLET_YAML)
        short = tmp_path / "short.txt"
        short.write_text("".join(f"{1300.0 + k} 0.01\n" for k in range(4)))
        code = main(["fit-odmr", "--config", cfg, "--out", str(tmp_path), str(short)])
        assert code == 2
        assert "at least 8" in json.loads(capsys.readouterr().err)["detail"]

    def test_fit_strain_roundtrip(self, tmp_path):
        cfg, spectrum = self.synth_spectrum(tmp_path, ESODMR_FIT_YAML)
        out = tmp_path / "fit"
        code = main(["fit-strain", "--config", cfg, "--out", str(out), spectrum])
        assert code == 0
        fields = read_report(out / "fit_strain.txt")
        assert fields["converged"] == "true"
        assert float(fields["sigma_mhz"]) == pytest.approx(50.0, rel=0.02)


# pip's console-script template: the module and function come from the
# `name = "module:attr"` entry in [project.scripts]
CONSOLE_SCRIPT = """\
#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {func}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""


def make_console_script(bindir, name):
    """Write the console script `name` declared in the repo's pyproject.toml
    into bindir and return its path as found on that directory."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"][name]
    module, _, func = spec.partition(":")
    bindir.mkdir(parents=True, exist_ok=True)
    script = bindir / name
    script.write_text(
        CONSOLE_SCRIPT.format(python=sys.executable, module=module, func=func)
    )
    script.chmod(0o755)
    return shutil.which(name, path=str(bindir))


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = make_console_script(tmp_path / "bin", "nvpol")
        assert exe is not None
        # run the nvpol package this suite imported, not an installed copy
        src_root = str(Path(nvpol.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        cfg = write_config(tmp_path, STEADY_YAML)
        out = tmp_path / "out"
        proc = subprocess.run(
            [exe, "steady", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "steady_state.txt").exists()

        # the script passes main()'s exit status on to the shell
        missing = str(tmp_path / "nope.yaml")
        proc = subprocess.run(
            [exe, "steady", "--config", missing, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "ConfigError"


def test_cli_import_leaves_out_scipy_signal(tmp_path):
    # scipy.signal costs about a second and 40 MB to import; a fresh
    # process that synthesizes and fits a triplet must not load it
    src_root = str(Path(nvpol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
    cfg = write_config(tmp_path, CRITERION_7_YAML)
    spectrum = str(tmp_path / "data" / "synth_spectrum.txt")
    code = (
        "import sys\n"
        "from nvpol.cli import main\n"
        f"assert main(['synth', '--config', {cfg!r}, '--out', {str(tmp_path / 'data')!r}]) == 0\n"
        f"assert main(['fit-odmr', '--config', {cfg!r}, '--out', {str(tmp_path / 'fit')!r}, "
        f"{spectrum!r}]) == 0\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert "converged true" in (tmp_path / "fit" / "fit_odmr.txt").read_text()


def test_fit_commands_leave_out_scipy_linalg(tmp_path):
    # scipy.linalg alone takes about half of a fresh `import nvpol.cli`
    # that loads it; only the steady-state solver and evolve need it, and
    # only the strain lineshape needs scipy.special
    src_root = str(Path(nvpol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
    triplet = write_config(tmp_path, CRITERION_7_YAML)
    strain = write_config(tmp_path, ESODMR_FIT_YAML, name="strain.yaml")
    code = (
        "import sys\n"
        "from nvpol.cli import main\n"
        "def loaded(name):\n"
        "    return any(m == name or m.startswith(name + '.') for m in sys.modules)\n"
        f"assert main(['synth', '--config', {triplet!r}, '--out', {str(tmp_path / 'odmr')!r}]) == 0\n"
        f"assert main(['fit-odmr', '--config', {triplet!r}, '--out', {str(tmp_path / 'fit')!r}, "
        f"{str(tmp_path / 'odmr' / 'synth_spectrum.txt')!r}]) == 0\n"
        "print(loaded('scipy'))\n"
        f"assert main(['synth', '--config', {strain!r}, '--out', {str(tmp_path / 'es')!r}]) == 0\n"
        f"assert main(['fit-strain', '--config', {strain!r}, '--out', {str(tmp_path / 'fit')!r}, "
        f"{str(tmp_path / 'es' / 'synth_spectrum.txt')!r}]) == 0\n"
        "print(loaded('scipy.linalg'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
    assert "converged true" in (tmp_path / "fit" / "fit_strain.txt").read_text()
