"""Command-line front end.

Subcommands: steady, sweep-b, scan-2d, temperature, fit-odmr, fit-strain,
synth.  Every run is a pure function of (config, seed): outputs are
byte-identical across reruns, with all numbers printed at full
round-trip precision.

Exit codes: 0 success, 2 input/config error, 3 numerical
non-convergence, 4 partial sweep failure (half or more points failed).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import odmr
from .config import ConfigError, RunConfig, load_config
from .model import CalibrationError, calibrate_pump, solve_point
from .odmr import (
    esodmr_lineshape,
    fit_spectrum,
    fit_strain_distribution,
    format_fit_report,
    format_strain_report,
    load_spectrum,
    model_spectrum,
    polarization_from_amplitudes,
    save_spectrum,
)
from .solver import SolverError
from .sweep import SweepSpec, scan_field_strain, sweep_field, temperature_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


def _fmt(x) -> str:
    return "%.17g" % x


def _error_record(exc) -> None:
    record = {"error": type(exc).__name__, "detail": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _ensure_out(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _resolve_dissipation(cfg: RunConfig):
    if cfg.calibrate_target is None:
        return cfg.dissipation
    return calibrate_pump(cfg.calibrate_target, cfg.dissipation, cfg.system)


def cmd_steady(cfg: RunConfig, args, out_dir: str, seed: int) -> int:
    p_n, p_e, report = solve_point(cfg.system, _resolve_dissipation(cfg))
    path = os.path.join(_ensure_out(out_dir), "steady_state.txt")
    with open(path, "w") as fh:
        fh.write("# steady-state report\n")
        fh.write(f"hilbert_dim {report.rho.shape[0]}\n")
        fh.write(f"null_space_dim {report.null_space_dim}\n")
        fh.write(f"residual_norm {_fmt(report.residual_norm)}\n")
        fh.write(f"p_nuclear {_fmt(p_n)}\n")
        fh.write(f"p_electron {_fmt(p_e)}\n")
        fh.write("rho_real\n")
        for row in report.rho.real:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")
        fh.write("rho_imag\n")
        for row in report.rho.imag:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")
    return EXIT_OK


def _write_table(out_dir: str, stem: str, columns: tuple, rows: list, n_plot: int) -> int:
    """Write <stem>.csv (a header, then one row per point) and
    <stem>_plot.dat (the first n_plot fields of each row).  The last
    field of a row is its status; returns EXIT_PARTIAL when half or more
    of the rows failed."""
    out = _ensure_out(out_dir)
    with open(os.path.join(out, f"{stem}.csv"), "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    with open(os.path.join(out, f"{stem}_plot.dat"), "w") as fh:
        for row in rows:
            fh.write(" ".join(row[:n_plot]) + "\n")
    n_failed = sum(row[-1] != "ok" for row in rows)
    return EXIT_PARTIAL if 2 * n_failed >= len(rows) else EXIT_OK


def _run_sweep(cfg: RunConfig, args, out_dir: str, run, stem: str, axes: tuple) -> int:
    """Run a sweep over the config axes and write its table, one row per
    point in row-major order."""
    spec = SweepSpec(
        base=cfg.system,
        dissipation=_resolve_dissipation(cfg),
        axis1=cfg.sweep_axis1,
        axis2=cfg.sweep_axis2,
    )
    result = run(spec)
    values = (result.axis1_values, result.axis2_values)
    rows = []
    for idx in np.ndindex(result.status.shape):
        coords = tuple(_fmt(v[k]) for v, k in zip(values, idx))
        rows.append(
            coords + (
                _fmt(result.p_nuclear[idx]), _fmt(result.p_electron[idx]),
                _fmt(result.residual[idx]), result.status[idx],
            )
        )
    columns = axes + ("nuclear_polarization", "electron_polarization", "residual", "status")
    return _write_table(out_dir, stem, columns, rows, len(axes) + 1)


def cmd_sweep_b(cfg: RunConfig, args, out_dir: str, seed: int) -> int:
    if cfg.sweep_axis1 is None:
        raise ConfigError("sweep-b requires a sweep.axis1 section")
    return _run_sweep(cfg, args, out_dir, sweep_field, "sweep_b", ("b_gauss",))


def cmd_scan_2d(cfg: RunConfig, args, out_dir: str, seed: int) -> int:
    if cfg.sweep_axis1 is None or cfg.sweep_axis2 is None:
        raise ConfigError("scan-2d requires sweep.axis1 and sweep.axis2")
    return _run_sweep(cfg, args, out_dir, scan_field_strain, "scan_2d", ("b_gauss", "e_es_mhz"))


def cmd_temperature(cfg: RunConfig, args, out_dir: str, seed: int) -> int:
    if cfg.temperature_table is None:
        raise ConfigError("temperature requires a temperature_table section")
    curve = temperature_curve(cfg.system, _resolve_dissipation(cfg), cfg.temperature_table)
    rows = [(_fmt(temp), _fmt(p_n), status) for temp, p_n, status in curve]
    return _write_table(
        out_dir, "temperature", ("temperature_k", "nuclear_polarization", "status"), rows, 2
    )


def cmd_fit_odmr(cfg: RunConfig, args, out_dir: str, seed: int) -> int:
    data = load_spectrum(args.spectrum)
    fit = cfg.fit
    report = fit_spectrum(data, fit.n_peaks, max_iter=fit.max_iter)
    polarization = None
    if fit.m_values is not None:
        if len(fit.m_values) != fit.n_peaks:
            raise ConfigError(
                f"fit.m_values has {len(fit.m_values)} entries for {fit.n_peaks} peaks"
            )
        amplitudes = [pk.amplitude for pk in report.peak_set.peaks]
        sigmas = [unc[2] for unc in report.peak_uncertainties]
        polarization = polarization_from_amplitudes(
            amplitudes, fit.m_values, cfg.system.nuclear_spin, uncertainties=sigmas
        )
    path = os.path.join(_ensure_out(out_dir), "fit_odmr.txt")
    with open(path, "w") as fh:
        fh.write(format_fit_report(report, polarization))
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_fit_strain(cfg: RunConfig, args, out_dir: str, seed: int) -> int:
    data = load_spectrum(args.spectrum)
    fit = cfg.fit
    report = fit_strain_distribution(
        data, fit.d_es_mhz, fit.natural_fwhm_mhz,
        fit_d_es=fit.fit_d_es, max_iter=fit.max_iter,
    )
    path = os.path.join(_ensure_out(out_dir), "fit_strain.txt")
    with open(path, "w") as fh:
        fh.write(format_strain_report(report))
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_synth(cfg: RunConfig, args, out_dir: str, seed: int) -> int:
    synth = cfg.synth
    if synth is None:
        raise ConfigError("synth requires a synth section")
    grid = np.linspace(synth.grid.start_mhz, synth.grid.stop_mhz, synth.grid.count)
    header = [
        "synthetic spectrum (frequency_mhz, contrast)",
        f"kind {synth.kind}",
        f"seed {seed}",
        f"noise {_fmt(synth.noise)}",
    ]
    if synth.kind == "odmr":
        clean = model_spectrum(synth.peak_set, grid)
    else:
        clean = esodmr_lineshape(
            synth.strain, synth.d_es_mhz, synth.natural_fwhm_mhz, grid,
            amplitude=synth.amplitude,
        )
    contrast = clean.contrast
    if synth.noise > 0:
        rng = np.random.default_rng(seed)
        contrast = contrast + synth.noise * rng.standard_normal(contrast.size)
    spectrum = odmr.OdmrSpectrum(frequency=grid, contrast=contrast)
    path = os.path.join(_ensure_out(out_dir), "synth_spectrum.txt")
    save_spectrum(path, spectrum, header_lines=header)
    return EXIT_OK


COMMANDS = {
    "steady": cmd_steady,
    "sweep-b": cmd_sweep_b,
    "scan-2d": cmd_scan_2d,
    "temperature": cmd_temperature,
    "fit-odmr": cmd_fit_odmr,
    "fit-strain": cmd_fit_strain,
    "synth": cmd_synth,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="nvpol",
        description="Steady-state nuclear-polarization simulation and ODMR analysis",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML run configuration")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument(
        "--threads", type=int, default=1,
        help="ignored, kept because old command lines and the benchmark pass "
             "it: sweeps run serially, since a point is about 0.25 ms of "
             "GIL-holding numpy work that threads only slow down",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", parents=[common], help="single steady-state solve")
    for name in ("sweep-b", "scan-2d"):
        sp = sub.add_parser(name, parents=[common], help=f"{name} sweep to CSV")
        sp.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="ignored, kept because old command lines and the benchmark "
                 "pass it: writes no file, since a whole sweep reruns in seconds",
        )
    sub.add_parser("temperature", parents=[common], help="strain-averaged temperature curve")
    for name in ("fit-odmr", "fit-strain"):
        sp = sub.add_parser(name, parents=[common], help=f"{name} on a spectrum file")
        sp.add_argument("spectrum", help="two-column spectrum file")
    sub.add_parser("synth", parents=[common], help="write a synthetic spectrum")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        return COMMANDS[args.command](cfg, args, out_dir=args.out, seed=seed)
    except (ConfigError, OSError) as exc:
        _error_record(exc)
        return EXIT_CONFIG
    except (CalibrationError, SolverError) as exc:
        _error_record(exc)
        return EXIT_NUMERICAL
    except ValueError as exc:
        _error_record(exc)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
