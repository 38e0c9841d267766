"""Parameter-sweep engine: field sweeps, field x strain maps, strain-averaged
polarization, and temperature curves.

Grid points are solved one after another in row-major order; a point
takes under a millisecond of mostly GIL-holding numpy calls, so worker
threads would only add contention.  Failed points are recorded (NaN
values plus a status string) instead of aborting the sweep.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .model import DissipationParams, NVSystemParams, solve_point
from .solver import SolverError

AXIS_NAMES = ("b_axial_gauss", "e_es_mhz")


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 1:
            raise ValueError("axis count must be >= 1")
        if self.start > self.stop:
            raise ValueError("axis start must not exceed stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    base: NVSystemParams
    dissipation: DissipationParams
    axis1: SweepAxis
    axis2: SweepAxis | None = None


@dataclass(frozen=True)
class StrainDistribution:
    """Gaussian distribution of the strain splitting e_es, in MHz."""

    mean: float = 0.0
    sigma: float = 0.0
    n_quadrature: int = 32

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.n_quadrature < 1:
            raise ValueError("n_quadrature must be >= 1")


@dataclass(frozen=True)
class SweepResult:
    axis1_name: str
    axis1_values: np.ndarray
    axis2_name: str | None
    axis2_values: np.ndarray | None
    p_nuclear: np.ndarray
    p_electron: np.ndarray
    residual: np.ndarray
    status: np.ndarray

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(self.status != "ok"))


def _apply_axis(params: NVSystemParams, name: str, value: float) -> NVSystemParams:
    if name == "b_axial_gauss":
        bx, by, _bz = params.b_field
        return replace(params, b_field=(bx, by, float(value)))
    return replace(params, e_es=float(value))


def _run_grid(spec: SweepSpec) -> SweepResult:
    vals1 = spec.axis1.values()
    vals2 = spec.axis2.values() if spec.axis2 is not None else None
    shape = (vals1.size,) if vals2 is None else (vals1.size, vals2.size)
    p_n = np.full(shape, math.nan)
    p_e = np.full(shape, math.nan)
    res = np.full(shape, math.nan)
    status = np.full(shape, "ok", dtype=object)
    for idx in np.ndindex(shape):
        params = _apply_axis(spec.base, spec.axis1.name, vals1[idx[0]])
        if vals2 is not None:
            params = _apply_axis(params, spec.axis2.name, vals2[idx[1]])
        try:
            p_n[idx], p_e[idx], report = solve_point(params, spec.dissipation)
            res[idx] = report.residual_norm
        except SolverError as exc:
            status[idx] = type(exc).__name__
    return SweepResult(
        axis1_name=spec.axis1.name,
        axis1_values=vals1,
        axis2_name=spec.axis2.name if spec.axis2 is not None else None,
        axis2_values=vals2,
        p_nuclear=p_n,
        p_electron=p_e,
        residual=res,
        status=status,
    )


def sweep_field(spec: SweepSpec) -> SweepResult:
    """1-D sweep of the axial field, keeping the base field's transverse
    components; records both polarizations per point."""
    if spec.axis1.name != "b_axial_gauss":
        raise ValueError("sweep_field requires axis1 = b_axial_gauss")
    if spec.axis2 is not None:
        raise ValueError("sweep_field takes a single axis")
    return _run_grid(spec)


def scan_field_strain(spec: SweepSpec) -> SweepResult:
    """2-D field x strain map, row-major in (B, E)."""
    if spec.axis2 is None or (spec.axis1.name, spec.axis2.name) != (
        "b_axial_gauss",
        "e_es_mhz",
    ):
        raise ValueError(
            "scan_field_strain requires axes (b_axial_gauss, e_es_mhz)"
        )
    return _run_grid(spec)


def strain_averaged_polarization(
    params: NVSystemParams, diss: DissipationParams, dist: StrainDistribution
) -> float:
    """Nuclear polarization averaged over a Gaussian strain distribution.

    Gauss-Hermite quadrature with dist.n_quadrature nodes; sigma = 0 is
    evaluated as a single point so the delta-distribution case is exact.
    Point failures propagate as SolverError.
    """
    if dist.sigma == 0.0:
        p_n, _p_e, _report = solve_point(replace(params, e_es=dist.mean), diss)
        return p_n
    nodes, weights = hermgauss(dist.n_quadrature)
    e_values = dist.mean + math.sqrt(2.0) * dist.sigma * nodes
    weights = weights / math.sqrt(math.pi)
    total = 0.0
    for e_k, w_k in zip(e_values, weights):
        try:
            p_n, _p_e, _report = solve_point(replace(params, e_es=e_k), diss)
        except SolverError as exc:
            raise SolverError(
                f"quadrature node at e_es = {e_k:.6g} MHz failed: {exc}"
            ) from exc
        total += w_k * p_n
    return float(total)


def temperature_curve(
    params: NVSystemParams, diss: DissipationParams, table
) -> list:
    """Map a (temperature, StrainDistribution) table to rows of
    (temperature, P, status).

    Temperature enters only through the supplied distribution; rows are
    evaluated with strain_averaged_polarization in the given order.  A
    row that raises SolverError is recorded as NaN plus the error's class
    name, as a failed sweep point is, and status is "ok" otherwise.
    """
    table = list(table)
    if not table:
        raise ValueError("temperature table must be nonempty")
    out = []
    for temperature, dist in table:
        try:
            row = (float(temperature), strain_averaged_polarization(params, diss, dist), "ok")
        except SolverError as exc:
            row = (float(temperature), math.nan, type(exc).__name__)
        out.append(row)
    return out
