"""Parameter-sweep engine: field sweeps, field x strain maps, strain-averaged
polarization, and temperature curves.

Grid points are solved one after another in row-major order; a point
takes under a millisecond of mostly GIL-holding numpy calls, so worker
threads would only add contention.  Failed points are recorded (NaN
values plus a status string) instead of aborting the sweep.  An optional
append-only checkpoint file, one row per solved point in grid order,
makes long scans resumable bit for bit.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .model import DissipationParams, NVSystemParams, solve_point
from .solver import SolverError

AXIS_NAMES = ("b_axial_gauss", "e_es_mhz")

_CHECKPOINT_MAGIC = "# nvpol checkpoint v1"


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


def _spec_fingerprint(spec: SweepSpec) -> str:
    hf = spec.base.hyperfine
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    payload = {
        "d_es": spec.base.d_es,
        "e_es": spec.base.e_es,
        "b_field": list(spec.base.b_field),
        "gamma_e": spec.base.gamma_e,
        "gamma_n": spec.base.gamma_n,
        "a_par": hf.a_par,
        "a_perp": hf.a_perp,
        "nuclear_two_s": spec.base.nuclear_spin.two_s,
        "dissipation": [
            spec.dissipation.pump_rate,
            spec.dissipation.pump_leak_ratio,
            spec.dissipation.t1_electron,
            spec.dissipation.t1_nuclear,
        ],
        "axes": [[ax.name, ax.start, ax.stop, ax.count] for ax in axes],
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _format_row(row) -> str:
    i, j, v1, v2, p_n, p_e, res, status = row
    nums = " ".join("%.17g" % x for x in (v1, v2, p_n, p_e, res))
    return f"{i} {j} {nums} {status}\n"


def _load_checkpoint(path: str, fingerprint: str, n_points: int) -> tuple:
    """(rows, size): the complete rows of a checkpoint file, at most
    n_points, and the byte length of its header plus those rows.

    A row counts only when it ends in a newline; a run that stops while
    writing leaves a torn last row, which is dropped so the point is
    solved again.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return [], 0
    rows = []
    with open(path, "rb") as fh:
        magic = fh.readline().decode(errors="replace")
        params_line = fh.readline().decode(errors="replace")
        if (magic != _CHECKPOINT_MAGIC + "\n" or not params_line.startswith("# params ")
                or not params_line.endswith("\n")):
            raise ValueError(f"{path} is not a recognized checkpoint file")
        if params_line.split()[-1] != fingerprint:
            raise ValueError(
                f"checkpoint {path} was written for different sweep parameters"
            )
        size = fh.tell()
        for line in fh:
            parts = line.split()
            if len(rows) == n_points or not line.endswith(b"\n") or len(parts) != 8:
                break
            try:
                i, j = int(parts[0]), int(parts[1])
                nums = [float(x) for x in parts[2:7]]
                status = parts[7].decode()
            except ValueError:
                break
            rows.append((i, j, *nums, status))
            size += len(line)
    return rows, size


def _solve_row(i, j, v1, v2, params, diss):
    try:
        p_n, p_e, report = solve_point(params, diss)
        return (i, j, v1, v2, p_n, p_e, report.residual_norm, "ok")
    except SolverError as exc:
        return (i, j, v1, v2, math.nan, math.nan, math.nan, type(exc).__name__)


def _run_grid(spec: SweepSpec, checkpoint_path) -> SweepResult:
    vals1 = spec.axis1.values()
    vals2 = spec.axis2.values() if spec.axis2 is not None else None
    points = []
    for i, v1 in enumerate(vals1):
        p1 = _apply_axis(spec.base, spec.axis1.name, v1)
        if vals2 is None:
            points.append((i, 0, float(v1), math.nan, p1))
        else:
            for j, v2 in enumerate(vals2):
                p2 = _apply_axis(p1, spec.axis2.name, v2)
                points.append((i, j, float(v1), float(v2), p2))

    rows = []
    fh = None
    if checkpoint_path:
        fingerprint = _spec_fingerprint(spec)
        rows, size = _load_checkpoint(checkpoint_path, fingerprint, len(points))
        fh = open(checkpoint_path, "a")
        # drop a torn last row, so the next row starts on a line of its own
        fh.truncate(size)
        if size == 0:
            fh.write(_CHECKPOINT_MAGIC + "\n")
            fh.write(f"# params {fingerprint}\n")
            fh.flush()
    try:
        for pt in points[len(rows):]:
            row = _solve_row(*pt, spec.dissipation)
            rows.append(row)
            if fh:
                fh.write(_format_row(row))
                fh.flush()
    finally:
        if fh:
            fh.close()

    shape = (vals1.size,) if vals2 is None else (vals1.size, vals2.size)
    p_n = np.empty(shape)
    p_e = np.empty(shape)
    res = np.empty(shape)
    status = np.empty(shape, dtype=object)
    for row in rows:
        i, j, _v1, _v2, r_pn, r_pe, r_res, r_status = row
        idx = i if vals2 is None else (i, j)
        p_n[idx] = r_pn
        p_e[idx] = r_pe
        res[idx] = r_res
        status[idx] = r_status
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


def sweep_field(spec: SweepSpec, checkpoint_path=None) -> SweepResult:
    """1-D sweep of the axial field, keeping the base field's transverse
    components; records both polarizations per point."""
    if spec.axis1.name != "b_axial_gauss":
        raise ValueError("sweep_field requires axis1 = b_axial_gauss")
    if spec.axis2 is not None:
        raise ValueError("sweep_field takes a single axis")
    return _run_grid(spec, checkpoint_path)


def scan_field_strain(spec: SweepSpec, checkpoint_path=None) -> SweepResult:
    """2-D field x strain map, row-major in (B, E)."""
    if spec.axis2 is None or (spec.axis1.name, spec.axis2.name) != (
        "b_axial_gauss",
        "e_es_mhz",
    ):
        raise ValueError(
            "scan_field_strain requires axes (b_axial_gauss, e_es_mhz)"
        )
    return _run_grid(spec, checkpoint_path)


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
