"""The benchmark workloads: seeded inputs, jobs and correctness gates.

Each workload writes its configs and spectra (spectra through
``nvpol.cli.main(["synth", ...])``) when it is constructed, before any
timing starts.  ``rounds()`` yields lists of jobs forever; a job is one or
two ``nvpol.cli.main`` calls.  ``check()`` reads a job's output files and
returns the operations attempted, failed and wrong; ``final_checks()``
runs the gates that need the whole run.  A failed operation is a point or
row whose status is not ``ok`` or whose value misses the stored reference,
a fit that did not converge, missed its truth or stopped short of the
least-squares optimum, a command that exited nonzero, or a run-level gate
that failed.  Only a wrong output or a failed gate makes the run incorrect.
"""

import csv
import functools
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy.optimize import least_squares
from scipy.special import voigt_profile

from nvpol import cli

REFERENCE = Path(__file__).resolve().parent / "reference"

D_ES_MHZ = 1400.0
SYSTEM = {"d_es_mhz": D_ES_MHZ, "a_par_mhz": 40.0, "a_perp_mhz": 40.0}
DISSIPATION = {
    "pump_rate_mhz": 10.0,
    "t1_electron_us": 100.0,
    "t1_nuclear_us": 1000.0,
    "calibrate_electron_polarization": 0.8,
}
# |dP| allowed against the stored reference; the planned rewrites of the
# solver (Kronecker Liouvillian, batched LU) moved P by at most 1e-10
REFERENCE_TOL = 1e-8
# |dP| allowed between a scan point at zero strain and the evolve() oracle
EVOLVE_TOL = 1e-6
EVOLVE_FIELDS_G = (400.0, 500.0, 600.0)

# criterion 7 of the acceptance tests: 14N triplet at SNR 50, true P = 0.80
TRIPLET_CENTER, TRIPLET_SPLIT, TRIPLET_FWHM = 1400.0, 2.16, 1.0
TRIPLET_AMPS = tuple(0.03 * a for a in (0.85, 0.10, 0.05))
TRIPLET_P = 0.80
# the mean gates are statistical: criterion 7 averages over 100 spectra
TRIPLET_GATE_SPECTRA = 100
# a triplet fit whose cost exceeds the benchmark's own least-squares fit
# from the truth by more than this share stopped in a local minimum (fits
# at the optimum agree to ~1e-11, the local minima seen are 15-35 % worse)
TRIPLET_COST_TOL = 1e-6
STRAIN_SIGMAS_MHZ = (5.0, 20.0, 50.0, 200.0)
STRAIN_FWHM_MHZ = 5.0
STRAIN_AMPLITUDE = 0.04


def _write_yaml(path: Path, data: dict) -> str:
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return str(path)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sub_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def sigma_label(sigma: float) -> str:
    return "sigma%g" % sigma


@dataclass
class Job:
    label: str
    commands: list
    out: Path
    checkpoint: Path | None = None
    attrs: dict = field(default_factory=dict)

    def prepare(self) -> None:
        """Start from an empty output directory and no checkpoint."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        if self.checkpoint is not None and self.checkpoint.exists():
            self.checkpoint.unlink()

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())


class Workload:
    name = ""
    config = ""  # the config whose load setup_s measures
    min_rounds = 1  # rounds a run makes even when they take longer than --seconds

    def rounds(self):
        raise NotImplementedError

    def check(self, job: Job, codes: list) -> tuple:
        """(attempted, failed, wrong) operations of one job.  Failed counts
        every failure, including one the program reports itself (a non-ok
        status, a nonzero exit); wrong counts outputs that claim success but
        miss their correctness gate."""
        raise NotImplementedError

    def final_checks(self) -> list:
        """[(name, attempted, failed, wrong, detail)] for checks over the whole run."""
        return []


def _compare_rows(rows, ref, key_of, columns) -> tuple:
    """(failed, wrong): rows whose status is not ok, and ok rows that miss
    the stored reference."""
    failed = wrong = 0
    for row in rows:
        if row["status"] != "ok":
            failed += 1
            continue
        want = ref.get(key_of(row))
        if want is None or any(
            not abs(float(row[c]) - float(want[c])) <= REFERENCE_TOL for c in columns
        ):
            wrong += 1
    return failed + wrong, wrong


@functools.cache
def _reference(name: str, key_of) -> dict:
    return {key_of(r): r for r in _read_csv(REFERENCE / name)}


def _be_key(row):
    return (round(float(row["b_gauss"]), 6), round(float(row["e_es_mhz"]), 6))


def _t_key(row):
    return round(float(row["temperature_k"]), 6)


class StrainMap(Workload):
    """The 11 x 11 field x strain map and the temperature curve, one field at
    a time.  A job is a threaded, checkpointed scan-2d over one field (11
    strains, fresh checkpoint) and a temperature run over one
    strain-broadened row plus the 4 K row.  Every job makes the same
    solves, so the run's median job does not depend on which jobs it
    reached; the fields of the evolve cross-check come first."""

    name = "strain-map"
    FIELDS_G = tuple(400.0 + 20.0 * i for i in range(11))
    TEMPERATURE_ROWS = ((300.0, 150.0), (225.0, 112.5), (150.0, 75.0), (75.0, 37.5))
    COLD_ROW = (4.0, 0.0)
    NODES = 16

    def __init__(self, work: Path, seed: int, tiny: bool, threads: int):
        ne = 3 if tiny else 11
        fields = list(EVOLVE_FIELDS_G)
        if not tiny:
            fields += [b for b in self.FIELDS_G if b not in EVOLVE_FIELDS_G]
        self.min_rounds = len(EVOLVE_FIELDS_G)
        self.n_points, self.n_rows = ne, 2
        out, ckpt = work / "out", work / "scan.ckpt"
        self.jobs = []
        for k, b in enumerate(fields):
            rows = (self.TEMPERATURE_ROWS[k % len(self.TEMPERATURE_ROWS)], self.COLD_ROW)
            config = _write_yaml(work / f"map{k}.yaml", {
                "seed": seed,
                "system": dict(SYSTEM, b_axial_gauss=500.0),
                "dissipation": DISSIPATION,
                "sweep": {
                    "axis1": {"parameter": "b_axial_gauss", "start": b, "stop": b,
                              "count": 1},
                    "axis2": {"parameter": "e_es_mhz", "start": 0.0, "stop": 300.0,
                              "count": ne},
                },
                "temperature_table": [{"temperature_k": t, "sigma_mhz": s,
                                       "n_quadrature": self.NODES} for t, s in rows],
            })
            self.jobs.append(Job(
                "b%g" % b,
                [["scan-2d", "--config", config, "--out", str(out), "--threads",
                  str(threads), "--checkpoint", str(ckpt)],
                 ["temperature", "--config", config, "--out", str(out)]],
                out, checkpoint=ckpt,
                attrs={"points_expected": ne,
                       "strain_nodes_expected": sum(self.NODES if s > 0 else 1
                                                    for _t, s in rows)},
            ))
        self.config = self.jobs[0].commands[0][2]
        self.zero_strain = {}  # field -> scan row at zero strain, for final_checks

    def rounds(self):
        while True:
            for job in self.jobs:
                yield [job]

    def check(self, job, codes):
        attempted = failed = wrong = 0
        for code, name, n, ref, key, cols in (
            (codes[0], "scan_2d.csv", self.n_points,
             _reference("strain-map-scan.csv", _be_key), _be_key,
             ("nuclear_polarization", "electron_polarization")),
            (codes[1], "temperature.csv", self.n_rows,
             _reference("strain-map-temperature.csv", _t_key), _t_key,
             ("nuclear_polarization",)),
        ):
            path = job.out / name
            if code != 0 or not path.exists():
                attempted, failed = attempted + n, failed + n
                continue
            rows = _read_csv(path)
            f, w = _compare_rows(rows, ref, key, cols)
            missing = max(n - len(rows), 0)
            attempted += max(len(rows), n)
            failed, wrong = failed + f + missing, wrong + w + missing
            if name == "scan_2d.csv":
                for row in rows:
                    b, e = _be_key(row)
                    if e == 0.0:
                        self.zero_strain[b] = row
        return attempted, failed, wrong

    def final_checks(self):
        """Three zero-strain points of the run's scans against time evolution
        from the maximally mixed state to 50 / slowest rate."""
        from nvpol.model import (DissipationParams, HyperfineTensor, NVSystemParams,
                                 build_collapse_ops, build_hamiltonian, calibrate_pump,
                                 liouvillian)
        from nvpol.solver import (electron_polarization, evolve, nuclear_polarization,
                                  slowest_rate)

        hf = HyperfineTensor(a_par=SYSTEM["a_par_mhz"], a_perp=SYSTEM["a_perp_mhz"])
        base = NVSystemParams(d_es=D_ES_MHZ, hyperfine=hf)
        diss = calibrate_pump(
            DISSIPATION["calibrate_electron_polarization"],
            DissipationParams(pump_rate=DISSIPATION["pump_rate_mhz"],
                              t1_electron=DISSIPATION["t1_electron_us"],
                              t1_nuclear=DISSIPATION["t1_nuclear_us"]),
            base,
        )
        failed, worst = 0, 0.0
        for b in EVOLVE_FIELDS_G:
            p = NVSystemParams(d_es=D_ES_MHZ, hyperfine=hf, b_field=(0.0, 0.0, b))
            lv = liouvillian(build_hamiltonian(p), build_collapse_ops(diss, p.dims))
            n = lv.hilbert_dim
            rho = evolve(np.eye(n, dtype=complex) / n, lv, 50.0 / slowest_rate(lv))
            row = self.zero_strain.get(round(b, 6))
            if row is None:
                failed += 1
                continue
            err = max(abs(float(row["nuclear_polarization"])
                          - nuclear_polarization(rho, p.dims, p.nuclear_spin)),
                      abs(float(row["electron_polarization"])
                          - electron_polarization(rho, p.dims)))
            worst = max(worst, err)
            failed += not err <= EVOLVE_TOL
        n = len(EVOLVE_FIELDS_G)
        return [("evolve_cross_check", n, failed, failed,
                 f"max |dP| {worst:.3g} at {EVOLVE_FIELDS_G} G (tolerance {EVOLVE_TOL:g})")]


def _parse_report(path: Path) -> dict:
    """Key -> list of fields of a fit report written by the CLI."""
    out = {}
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts:
            out.setdefault(parts[0], []).append(parts[1:])
    return out


def _lorentzians(params, freq):
    """Baseline plus Lorentzian peaks, params [baseline, c1, w1, a1, ...]."""
    out = np.full(freq.shape, params[0])
    for c, w, a in np.reshape(params[1:], (-1, 3)):
        hw2 = 0.25 * w * w
        out += a * hw2 / ((freq - c) ** 2 + hw2)
    return out


def _load_spectrum(path: Path) -> tuple:
    """(frequency, contrast) of a spectrum file, dips positive as the CLI reads them."""
    freq, y = np.loadtxt(path, comments="#", unpack=True)
    med = np.median(y)
    return freq, (-y if abs(y.min() - med) > abs(y.max() - med) else y)


def _triplet_params(peaks, baseline=0.0) -> np.ndarray:
    return np.array([baseline] + [v for peak in peaks for v in peak])


def _cost(params, freq, y) -> float:
    return 0.5 * float(np.sum((_lorentzians(params, freq) - y) ** 2))


def _optimum_cost(freq, y, truth) -> float:
    """Least-squares cost reached from the generating truth, under the
    program's bounds (width at least the sample spacing, amplitude >= 0)."""
    lower = np.array([-np.inf] + [-np.inf, float(np.diff(freq).min()), 0.0] * 3)
    fit = least_squares(lambda p: _lorentzians(p, freq) - y, truth,
                        bounds=(lower, np.inf), x_scale="jac",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return float(fit.cost)


class TripletFit(Workload):
    """Seeded 14N triplets (criterion 7's shape); a job fits a set of 8
    spectra, one fit-odmr call each, and a run at least 13 sets (the 100
    spectra criterion 7 averages over).  Sets, not single spectra, because
    the cost of one fit is bimodal (about 40 % of spectra take 3-8 times
    the median): the median of single fits jumps with the share of slow
    spectra a seed happens to draw.

    Each spectrum's least-squares optimum is found before timing, from the
    truth with scipy.  A fit that did not converge, or whose cost is above
    that optimum, failed: the program stopped in a local minimum, on about
    1-3 % of SNR-50 triplets (often on a noise bump, P about 0).  Failed
    fits lower ok_frac; criterion 7's mean errors are gated over the other
    fits and, over all fits as criterion 7 takes them, reported."""

    name = "triplet-fit"
    PER_JOB = 8
    SETS = 26

    def __init__(self, work: Path, seed: int, tiny: bool):
        freq = np.linspace(TRIPLET_CENTER - 8.0, TRIPLET_CENTER + 8.0, 321)
        centers = (TRIPLET_CENTER - TRIPLET_SPLIT, TRIPLET_CENTER,
                   TRIPLET_CENTER + TRIPLET_SPLIT)
        truth = _triplet_params(
            (c, TRIPLET_FWHM, a) for c, a in zip(centers, TRIPLET_AMPS))
        clean = _lorentzians(truth, freq)
        self.config = _write_yaml(work / "triplet.yaml", {
            "seed": seed,
            "fit": {"n_peaks": 3, "m_values": [1, 0, -1]},
            "synth": {
                "kind": "odmr",
                "grid": {"start_mhz": float(freq[0]), "stop_mhz": float(freq[-1]),
                         "count": int(freq.size)},
                "noise": float(clean.max()) / 50.0,
                "baseline": 0.0,
                "peaks": [{"center_mhz": c, "fwhm_mhz": TRIPLET_FWHM, "amplitude": a}
                          for c, a in zip(centers, TRIPLET_AMPS)],
            },
        })
        per_job = 2 if tiny else self.PER_JOB
        out = work / "out"
        self.spectra = {}  # spectrum file -> (frequency, contrast, optimum cost)
        self.jobs = []
        for j in range(1 if tiny else self.SETS):
            commands = []
            for k in range(j * per_job, (j + 1) * per_job):
                spec_dir = work / f"spectrum{k}"
                _synth(self.config, spec_dir, _sub_seed(seed, k))
                spectrum = str(spec_dir / "synth_spectrum.txt")
                f, y = _load_spectrum(Path(spectrum))
                self.spectra[spectrum] = (f, y, _optimum_cost(f, y, truth))
                commands.append(["fit-odmr", "--config", self.config, "--out",
                                 str(out / str(k)), spectrum])
            self.jobs.append(Job(f"set{j}", commands, out,
                                 attrs={"fits_expected": per_job, "kind": "triplet"}))
        # spectrum -> (p_hat, amplitude error, fit failed)
        self.results = {}
        if not tiny:
            self.min_rounds = -(-TRIPLET_GATE_SPECTRA // per_job)

    def rounds(self):
        while True:
            for job in self.jobs:
                yield [job]

    def check(self, job, codes):
        failed = wrong = 0
        for argv, code in zip(job.commands, codes):
            path = Path(argv[4]) / "fit_odmr.txt"
            if not path.exists():
                failed += 1
                continue
            rep = _parse_report(path)
            fields = {(f[0], f[1]): float(f[2]) for f in rep["peak"]}
            peaks = sorted((fields[k, "center_mhz"], fields[k, "fwhm_mhz"],
                            fields[k, "amplitude"]) for k in {k for k, _n in fields})
            freq, y, optimum = self.spectra[argv[-1]]
            cost = _cost(_triplet_params(peaks, float(rep["baseline"][0][0])), freq, y)
            bad = (code != 0 or rep["converged"] != [["true"]]
                   or not cost <= optimum * (1.0 + TRIPLET_COST_TOL))
            failed += bad
            amp_err = max(abs(pk[2] - t) for pk, t in zip(peaks, TRIPLET_AMPS)) / max(TRIPLET_AMPS)
            self.results[argv[-1]] = (float(rep["polarization"][0][0]), amp_err, bad)
        return len(codes), failed, wrong

    def final_checks(self):
        """Criterion 7's mean errors over the first 100 spectra, gated over
        the fits that did not fail; the means over all of them, as criterion
        7 takes them, go into the detail."""
        values = list(self.results.values())[:TRIPLET_GATE_SPECTRA]
        n = len(values)
        if n < TRIPLET_GATE_SPECTRA:
            return []
        good = [(p, a) for p, a, bad in values if not bad]

        def means(vals):
            if not vals:
                return math.inf, math.inf
            return (float(np.mean([abs(p - TRIPLET_P) for p, _a in vals])),
                    float(np.mean([a for _p, a in vals])))

        p_err, a_err = means(good)
        p_all, a_all = means([(p, a) for p, a, _bad in values])
        p_bad, a_bad = int(not p_err <= 0.03), int(not a_err <= 0.02)
        over = f"over the {len(good)} of {n} spectra whose fit did not fail"
        return [
            ("triplet_mean_p_error", 1, p_bad, p_bad,
             f"mean |P - {TRIPLET_P}| = {p_err:.4f} {over} (gate 0.03); "
             f"{p_all:.4f} over all {n}"),
            ("triplet_mean_amplitude_error", 1, a_bad, a_bad,
             f"mean amplitude error {a_err:.4f} {over} (gate 0.02); "
             f"{a_all:.4f} over all {n}"),
        ]


class StrainFit(Workload):
    """One fit-strain per job; a round fits one spectrum of every sigma, and
    successive rounds take fresh noise draws."""

    name = "strain-fit"
    DRAWS = 5
    # 201 points, not criterion 7's 801: a quarter of the cost per fit buys
    # several spectra per sigma in a run, which the seed-to-seed spread needs
    POINTS = 201

    def __init__(self, work: Path, seed: int, tiny: bool):
        sigmas = (50.0,) if tiny else STRAIN_SIGMAS_MHZ
        draws = 1 if tiny else self.DRAWS
        self.min_rounds = 1 if tiny else 2
        out = work / "out"
        self.cycles = [[] for _ in range(draws)]
        for i, sigma in enumerate(sigmas):
            half = max(6.0 * sigma, 60.0)
            gamma = 0.5 * STRAIN_FWHM_MHZ
            # peak of the two-branch line at mean strain 0: A * pi * gamma * V(0)
            peak = STRAIN_AMPLITUDE * math.pi * gamma * float(voigt_profile(0.0, sigma, gamma))
            config = _write_yaml(work / f"strain_{sigma_label(sigma)}.yaml", {
                "seed": seed,
                "fit": {"d_es_mhz": D_ES_MHZ, "natural_fwhm_mhz": STRAIN_FWHM_MHZ},
                "synth": {
                    "kind": "esodmr",
                    "grid": {"start_mhz": D_ES_MHZ - half, "stop_mhz": D_ES_MHZ + half,
                             "count": self.POINTS},
                    "noise": 0.02 * peak,
                    "d_es_mhz": D_ES_MHZ,
                    "natural_fwhm_mhz": STRAIN_FWHM_MHZ,
                    "amplitude": STRAIN_AMPLITUDE,
                    "strain": {"mean_mhz": 0.0, "sigma_mhz": sigma, "n_quadrature": 32},
                },
            })
            if i == 0:
                self.config = config
            for d, cycle in enumerate(self.cycles):
                spec_dir = work / f"spectrum_{sigma_label(sigma)}_{d}"
                _synth(config, spec_dir, _sub_seed(seed, 100 * d + i))
                cycle.append(Job(
                    sigma_label(sigma),
                    [["fit-strain", "--config", config, "--out", str(out),
                      str(spec_dir / "synth_spectrum.txt")]],
                    out, attrs={"fits_expected": 1, "kind": "strain", "sigma": sigma},
                ))

    def rounds(self):
        while True:
            yield from self.cycles

    def check(self, job, codes):
        path = job.out / "fit_strain.txt"
        if codes != [0] or not path.exists():
            return 1, 1, 0
        sigma = job.attrs["sigma"]
        wrong = not abs(float(_parse_report(path)["sigma_mhz"][0][0]) - sigma) <= 0.10 * sigma
        return 1, int(wrong), int(wrong)


def _synth(config: str, out_dir: Path, seed: int) -> None:
    code = cli.main(["synth", "--config", config, "--out", str(out_dir), "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"synth failed with exit code {code} for {config}")


def make(name: str, work: Path, seed: int, tiny: bool, threads: int) -> Workload:
    if name == StrainMap.name:
        return StrainMap(work, seed, tiny, threads)
    return {TripletFit.name: TripletFit, StrainFit.name: StrainFit}[name](work, seed, tiny)


def map_threads() -> int:
    """strain-map's --threads: two, but never more than the usable cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))
