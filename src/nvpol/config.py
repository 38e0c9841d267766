"""Run configuration: strict YAML ingestion into the domain types.

Every physical key carries its unit in the name (d_es_mhz, b_axial_gauss,
t1_electron_us) so a unit mistake cannot be expressed silently.  Unknown
keys are rejected at every nesting level.  Every number must be finite,
except a relaxation time of .inf, which switches that channel off.
"""

import math
import re
from dataclasses import dataclass, field

import yaml

from .model import DissipationParams, HyperfineTensor, NVSystemParams
from .odmr import LorentzianPeak, PeakSet
from .spinops import SpinQuantumNumber
from .sweep import StrainDistribution, SweepAxis


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 5e2 or 5.0e2.

    PyYAML follows YAML 1.1, whose float pattern needs a decimal point
    and a signed exponent, so 5e2 would load as the string '5e2'.  The
    resolver is tried after the YAML 1.1 ones, so integers stay integers.

    With libyaml the C parser reads the text, about six times faster
    than PyYAML's pure-Python scanner; both feed the same resolvers and
    constructors, so they build the same values.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


@dataclass(frozen=True)
class FitSettings:
    n_peaks: int = 1
    max_iter: int = 200
    m_values: tuple | None = None
    d_es_mhz: float = 1400.0
    natural_fwhm_mhz: float = 5.0
    fit_d_es: bool = False


@dataclass(frozen=True)
class GridSettings:
    start_mhz: float
    stop_mhz: float
    count: int

    def __post_init__(self):
        if self.count < 8:
            raise ConfigError("grid count must be >= 8")
        if not self.start_mhz < self.stop_mhz:
            raise ConfigError("grid start_mhz must be below stop_mhz")


@dataclass(frozen=True)
class SynthSettings:
    kind: str
    grid: GridSettings
    noise: float = 0.0
    peak_set: PeakSet | None = None
    d_es_mhz: float = 1400.0
    natural_fwhm_mhz: float = 5.0
    amplitude: float = 1.0
    strain: StrainDistribution | None = None


@dataclass(frozen=True)
class RunConfig:
    system: NVSystemParams = field(default_factory=NVSystemParams)
    dissipation: DissipationParams = field(default_factory=DissipationParams)
    calibrate_target: float | None = None
    sweep_axis1: SweepAxis | None = None
    sweep_axis2: SweepAxis | None = None
    temperature_table: tuple | None = None
    fit: FitSettings = field(default_factory=FitSettings)
    synth: SynthSettings | None = None
    seed: int = 0


def _mapping(obj, section):
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    return dict(obj)


def _reject_unknown(d, section):
    if d:
        keys = ", ".join(sorted(str(k) for k in d))
        raise ConfigError(f"unknown key(s) in '{section}': {keys}")


def _as_float(v, key):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"'{key}' must be finite, got {v!r}")
    return x


def _as_int(v, key):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{key}' must be an integer, got {v!r}")
    return v


def _parse_system(raw):
    d = _mapping(raw, "system")
    kwargs = {}
    if "d_es_mhz" in d:
        kwargs["d_es"] = _as_float(d.pop("d_es_mhz"), "d_es_mhz")
    if "e_es_mhz" in d:
        kwargs["e_es"] = _as_float(d.pop("e_es_mhz"), "e_es_mhz")
    if "b_gauss" in d and "b_axial_gauss" in d:
        raise ConfigError("give either b_gauss or b_axial_gauss, not both")
    if "b_gauss" in d:
        vec = d.pop("b_gauss")
        if not isinstance(vec, (list, tuple)) or len(vec) != 3:
            raise ConfigError("b_gauss must be a 3-component list")
        kwargs["b_field"] = tuple(_as_float(v, "b_gauss") for v in vec)
    if "b_axial_gauss" in d:
        kwargs["b_field"] = (0.0, 0.0, _as_float(d.pop("b_axial_gauss"), "b_axial_gauss"))
    if "gamma_e_mhz_per_g" in d:
        kwargs["gamma_e"] = _as_float(d.pop("gamma_e_mhz_per_g"), "gamma_e_mhz_per_g")
    if "gamma_n_mhz_per_g" in d:
        kwargs["gamma_n"] = _as_float(d.pop("gamma_n_mhz_per_g"), "gamma_n_mhz_per_g")
    if "nuclear_two_s" in d:
        kwargs["nuclear_spin"] = SpinQuantumNumber(_as_int(d.pop("nuclear_two_s"), "nuclear_two_s"))
    hf_kwargs = {}
    if "a_par_mhz" in d:
        hf_kwargs["a_par"] = _as_float(d.pop("a_par_mhz"), "a_par_mhz")
    if "a_perp_mhz" in d:
        hf_kwargs["a_perp"] = _as_float(d.pop("a_perp_mhz"), "a_perp_mhz")
    _reject_unknown(d, "system")
    try:
        return NVSystemParams(hyperfine=HyperfineTensor(**hf_kwargs), **kwargs)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def _parse_dissipation(raw):
    d = _mapping(raw, "dissipation")
    target = None
    if "calibrate_electron_polarization" in d:
        target = _as_float(
            d.pop("calibrate_electron_polarization"), "calibrate_electron_polarization"
        )
    kwargs = {}
    for cfg_key, attr in (
        ("pump_rate_mhz", "pump_rate"),
        ("pump_leak_ratio", "pump_leak_ratio"),
        ("t1_electron_us", "t1_electron"),
        ("t1_nuclear_us", "t1_nuclear"),
    ):
        if cfg_key in d:
            v = d.pop(cfg_key)
            # an infinite relaxation time switches that channel off
            off = cfg_key.startswith("t1_") and v == math.inf
            kwargs[attr] = math.inf if off else _as_float(v, cfg_key)
    _reject_unknown(d, "dissipation")
    try:
        return DissipationParams(**kwargs), target
    except ValueError as exc:
        raise ConfigError(f"dissipation: {exc}") from exc


def _parse_axis(raw, section):
    d = _mapping(raw, section)
    try:
        axis = SweepAxis(
            name=str(d.pop("parameter", "")),
            start=_as_float(d.pop("start"), f"{section}.start"),
            stop=_as_float(d.pop("stop"), f"{section}.stop"),
            count=_as_int(d.pop("count"), f"{section}.count"),
        )
    except KeyError as exc:
        raise ConfigError(f"{section}: missing required key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    _reject_unknown(d, section)
    return axis


def _parse_strain(raw, section):
    d = _mapping(raw, section)
    try:
        dist = StrainDistribution(
            mean=_as_float(d.pop("mean_mhz", 0.0), f"{section}.mean_mhz"),
            sigma=_as_float(d.pop("sigma_mhz", 0.0), f"{section}.sigma_mhz"),
            n_quadrature=_as_int(d.pop("n_quadrature", 32), f"{section}.n_quadrature"),
        )
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc
    _reject_unknown(d, section)
    return dist


def _parse_temperature_table(raw):
    if not isinstance(raw, list) or not raw:
        raise ConfigError("temperature_table must be a nonempty list")
    table = []
    for k, row in enumerate(raw):
        d = _mapping(row, f"temperature_table[{k}]")
        try:
            temp = _as_float(d.pop("temperature_k"), "temperature_k")
        except KeyError as exc:
            raise ConfigError(f"temperature_table[{k}]: missing {exc}") from exc
        dist = _parse_strain(d, f"temperature_table[{k}]")
        table.append((temp, dist))
    return tuple(table)


def _parse_fit(raw):
    d = _mapping(raw, "fit")
    kwargs = {}
    if "n_peaks" in d:
        kwargs["n_peaks"] = _as_int(d.pop("n_peaks"), "n_peaks")
    if "max_iter" in d:
        kwargs["max_iter"] = _as_int(d.pop("max_iter"), "max_iter")
    if "m_values" in d:
        vals = d.pop("m_values")
        if not isinstance(vals, list) or not vals:
            raise ConfigError("fit.m_values must be a nonempty list")
        kwargs["m_values"] = tuple(_as_float(v, "m_values") for v in vals)
    if "d_es_mhz" in d:
        kwargs["d_es_mhz"] = _as_float(d.pop("d_es_mhz"), "fit.d_es_mhz")
    if "natural_fwhm_mhz" in d:
        kwargs["natural_fwhm_mhz"] = _as_float(d.pop("natural_fwhm_mhz"), "fit.natural_fwhm_mhz")
    if "fit_d_es" in d:
        v = d.pop("fit_d_es")
        if not isinstance(v, bool):
            raise ConfigError("fit.fit_d_es must be a boolean")
        kwargs["fit_d_es"] = v
    _reject_unknown(d, "fit")
    return FitSettings(**kwargs)


def _parse_grid(raw):
    d = _mapping(raw, "synth.grid")
    try:
        grid = GridSettings(
            start_mhz=_as_float(d.pop("start_mhz"), "grid.start_mhz"),
            stop_mhz=_as_float(d.pop("stop_mhz"), "grid.stop_mhz"),
            count=_as_int(d.pop("count"), "grid.count"),
        )
    except KeyError as exc:
        raise ConfigError(f"synth.grid: missing {exc}") from exc
    _reject_unknown(d, "synth.grid")
    return grid


def _parse_synth(raw):
    d = _mapping(raw, "synth")
    kind = str(d.pop("kind", ""))
    if kind not in ("odmr", "esodmr"):
        raise ConfigError("synth.kind must be 'odmr' or 'esodmr'")
    if "grid" not in d:
        raise ConfigError("synth: missing grid")
    grid = _parse_grid(d.pop("grid"))
    noise = _as_float(d.pop("noise", 0.0), "synth.noise")
    if noise < 0:
        raise ConfigError("synth.noise must be >= 0")
    if kind == "odmr":
        raw_peaks = d.pop("peaks", None)
        if not isinstance(raw_peaks, list) or not raw_peaks:
            raise ConfigError("synth: odmr kind needs a nonempty peaks list")
        baseline = _as_float(d.pop("baseline", 0.0), "synth.baseline")
        peaks = []
        for k, row in enumerate(raw_peaks):
            pd = _mapping(row, f"synth.peaks[{k}]")
            try:
                peaks.append(
                    LorentzianPeak(
                        center=_as_float(pd.pop("center_mhz"), "center_mhz"),
                        fwhm=_as_float(pd.pop("fwhm_mhz"), "fwhm_mhz"),
                        amplitude=_as_float(pd.pop("amplitude"), "amplitude"),
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"synth.peaks[{k}]: missing {exc}") from exc
            except ValueError as exc:
                raise ConfigError(f"synth.peaks[{k}]: {exc}") from exc
            _reject_unknown(pd, f"synth.peaks[{k}]")
        settings = SynthSettings(
            kind=kind, grid=grid, noise=noise,
            peak_set=PeakSet(peaks=tuple(peaks), baseline=baseline),
        )
    else:
        strain = _parse_strain(d.pop("strain", None), "synth.strain")
        settings = SynthSettings(
            kind=kind, grid=grid, noise=noise,
            d_es_mhz=_as_float(d.pop("d_es_mhz", 1400.0), "synth.d_es_mhz"),
            natural_fwhm_mhz=_as_float(d.pop("natural_fwhm_mhz", 5.0), "synth.natural_fwhm_mhz"),
            amplitude=_as_float(d.pop("amplitude", 1.0), "synth.amplitude"),
            strain=strain,
        )
    _reject_unknown(d, "synth")
    return settings


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    d = _mapping(raw, "config")
    system = _parse_system(d.pop("system", None))
    dissipation, calibrate_target = _parse_dissipation(d.pop("dissipation", None))
    if calibrate_target is not None and not 0.0 < calibrate_target < 1.0:
        raise ConfigError("calibrate_electron_polarization must lie in (0, 1)")

    axis1 = axis2 = None
    if "sweep" in d:
        sw = _mapping(d.pop("sweep"), "sweep")
        if "axis1" not in sw:
            raise ConfigError("sweep: missing axis1")
        axis1 = _parse_axis(sw.pop("axis1"), "sweep.axis1")
        if "axis2" in sw:
            axis2 = _parse_axis(sw.pop("axis2"), "sweep.axis2")
        _reject_unknown(sw, "sweep")

    table = _parse_temperature_table(d.pop("temperature_table")) if "temperature_table" in d else None
    fit = _parse_fit(d.pop("fit", None))
    synth = _parse_synth(d.pop("synth")) if "synth" in d else None
    seed = 0
    if "seed" in d:
        seed = _as_int(d.pop("seed"), "seed")
    _reject_unknown(d, "config")
    return RunConfig(
        system=system,
        dissipation=dissipation,
        calibrate_target=calibrate_target,
        sweep_axis1=axis1,
        sweep_axis2=axis2,
        temperature_table=table,
        fit=fit,
        synth=synth,
        seed=seed,
    )
