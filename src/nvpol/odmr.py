"""ODMR/ESODMR forward models, multi-Lorentzian fitting, polarization
extraction from resonance amplitudes, and strain-distribution fitting.

Contrast is stored as a positive dip depth throughout; spectra are
(frequency MHz, contrast) pairs on a strictly increasing grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spinops import SpinQuantumNumber
from .sweep import StrainDistribution

# relative cost reduction and relative step at which an accepted
# Levenberg-Marquardt step counts as converged
LM_TOL = 1e-12
# atom values matching pursuit holds at once (1 MB of float64)
ATOM_BLOCK = 1 << 17
# matching-pursuit centres per seed width: finer grids are thinned to this
CENTRES_PER_WIDTH = 20

_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class OdmrSpectrum:
    frequency: np.ndarray
    contrast: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequency, dtype=float)
        c = np.asarray(self.contrast, dtype=float)
        if f.ndim != 1 or c.ndim != 1 or f.size != c.size:
            raise ValueError("frequency and contrast must be equal-length 1-D arrays")
        if f.size < 8:
            raise ValueError(f"spectrum needs at least 8 points, got {f.size}")
        if not np.all(np.diff(f) > 0):
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "frequency", f)
        object.__setattr__(self, "contrast", c)


@dataclass(frozen=True)
class LorentzianPeak:
    center: float
    fwhm: float
    amplitude: float

    def __post_init__(self):
        if not self.fwhm > 0:
            raise ValueError("fwhm must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")


@dataclass(frozen=True)
class PeakSet:
    peaks: tuple
    baseline: float = 0.0

    def __post_init__(self):
        peaks = tuple(self.peaks)
        if not peaks:
            raise ValueError("peak set must contain at least one peak")
        object.__setattr__(self, "peaks", peaks)


@dataclass(frozen=True)
class PolarizationEstimate:
    p: float
    uncertainty: float

    def __post_init__(self):
        if abs(self.p) > 1.0:
            raise ValueError(f"|p| must not exceed 1, got {self.p}")


@dataclass(frozen=True)
class FitReport:
    """Multi-Lorentzian fit result, peaks sorted by center."""

    peak_set: PeakSet
    baseline_uncertainty: float
    peak_uncertainties: tuple  # (center, fwhm, amplitude) sigma per peak
    residual_norm: float
    converged: bool
    pinned: tuple  # True where an amplitude sits at the zero boundary
    n_iter: int


@dataclass(frozen=True)
class StrainFitReport:
    dist: StrainDistribution
    amplitude: float
    d_es: float
    sigma_uncertainty: float
    amplitude_uncertainty: float
    residual_norm: float
    converged: bool
    sigma_pinned: bool
    unidentifiable: bool
    n_iter: int


def _pack(ps: PeakSet) -> np.ndarray:
    out = [ps.baseline]
    for pk in ps.peaks:
        out.extend((pk.center, pk.fwhm, pk.amplitude))
    return np.array(out, dtype=float)


def multi_lorentzian(params: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """Sum of Lorentzian dips on a baseline.

    params = [baseline, c1, w1, a1, c2, w2, a2, ...] with centers c,
    full widths at half maximum w and peak amplitudes a.
    """
    c, w, a = params[1:].reshape(-1, 3).T[:, :, None]
    hw2 = 0.25 * w * w
    d = freq - c
    return params[0] + (a * hw2 / (d * d + hw2)).sum(axis=0)


def multi_lorentzian_jac(params: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of :func:`multi_lorentzian` w.r.t. params.

    Built peak-major, one row per parameter, and returned as the
    transposed (points, params) view.
    """
    c, w, a = params[1:].reshape(-1, 3).T[:, :, None]
    hw2 = 0.25 * w * w
    d = freq - c
    den = d * d + hw2
    den2 = den * den
    jac = np.empty((params.size, freq.size))
    jac[0] = 1.0
    jac[1::3] = a * hw2 * 2.0 * d / den2
    jac[2::3] = a * d * d / den2 * (0.5 * w)
    jac[3::3] = hw2 / den
    return jac.T


def model_spectrum(ps: PeakSet, grid) -> OdmrSpectrum:
    """Evaluate a Lorentzian peak set on a frequency grid.

    contrast(f) = baseline + sum_k a_k (w_k/2)^2 / ((f - c_k)^2 + (w_k/2)^2)
    """
    grid = np.asarray(grid, dtype=float)
    return OdmrSpectrum(frequency=grid, contrast=multi_lorentzian(_pack(ps), grid))


def _lm_least_squares(fun, x0, lower, upper, jac, max_iter=200, cost_floor=1e-30):
    """Damped Gauss-Newton (Levenberg-Marquardt) with box clipping;
    jac(x) is the Jacobian of the residual vector fun(x).

    Marquardt diagonal scaling keeps the damping meaningful when the
    parameters span orders of magnitude.  Each iteration holds every
    parameter that sits on a bound with the cost gradient pointing out
    of the box (on the lower bound with gradient > 0, on the upper with
    gradient < 0): its row and column leave the damped normal
    equations and its step is zero, so a clip cannot shrink the step of
    the others to nothing.  The predicted reduction still uses the full
    gradient and matrix; with nothing held the step is the plain one.
    With every parameter held no step is left, which converges as any
    absence of a descent step does.

    An accepted step converges on a cost reduction or a step below
    LM_TOL relative, or on cost reaching cost_floor; the caller sets
    cost_floor to the model's own evaluation noise, below which
    relative tests compare noise against noise and never fire.  Absence
    of any descent step also converges; hitting max_iter leaves
    converged False.

    Returns (x, cost, jac_final, converged, n_iter).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = fun(x)
    # J^T J and J^T r are formed from row-major storage whatever order
    # jac returns: BLAS rounds them differently for the two layouts
    jmat = np.ascontiguousarray(jac(x))
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    converged = False
    n_iter = 0
    if cost <= cost_floor:
        return x, cost, jmat, True, 0
    for n_iter in range(1, max_iter + 1):
        a_mat = jmat.T @ jmat
        grad = jmat.T @ r
        diag = np.diag(a_mat).copy()
        pos = diag > 0
        diag[~pos] = diag[pos].min() if pos.any() else 1.0
        free = np.flatnonzero(~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0))))
        a_free, diag_free, grad_free = a_mat[np.ix_(free, free)], diag[free], grad[free]
        step = np.zeros_like(x)
        accepted = False
        for _ in range(60):
            try:
                step[free] = np.linalg.solve(a_free + lam * np.diag(diag_free), -grad_free)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.clip(x + step, lower, upper)
            taken = x_new - x
            if not np.any(taken):
                break
            r_new = fun(x_new)
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new < cost:
                predicted = -(grad @ taken) - 0.5 * float(taken @ (a_mat @ taken))
                ratio = (cost - cost_new) / predicted if predicted > 0 else 1.0
                lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 1e-14)
                dcost = cost - cost_new
                x, r, cost = x_new, r_new, cost_new
                jmat = np.ascontiguousarray(jac(x))
                accepted = True
                if cost <= cost_floor:
                    converged = True
                elif dcost <= LM_TOL * max(cost, 1e-300) or np.all(
                    np.abs(taken) <= LM_TOL * (np.abs(x) + LM_TOL)
                ):
                    converged = True
                break
            lam *= 4.0
            if lam > 1e13:
                break
        if not accepted:
            converged = True  # no descent step exists: stationary point
            break
        if converged:
            break
    return x, cost, jmat, converged, n_iter


def _curvature_uncertainties(jmat, cost, n_points):
    """One-sigma parameter uncertainties from the local curvature:
    sigma^2 = RSS/dof, cov = sigma^2 (J^T J)^+.

    A parameter whose Jacobian column is all zero (the center and width
    of a peak at amplitude 0) does not move the model, so the data say
    nothing about it: its uncertainty is nan, not the pseudo-inverse's 0.
    """
    dof = n_points - jmat.shape[1]
    scale = 2.0 * cost / dof if dof > 0 else math.nan
    cov = scale * np.linalg.pinv(jmat.T @ jmat)
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    sig[~jmat.any(axis=0)] = math.nan
    return sig


def _smoothed(trace):
    """Short moving average; a single-sample noise excursion must not
    outrank a genuine low peak that is merely wide."""
    window = max(3, (trace.size // 100) | 1)
    return np.convolve(trace, np.full(window, 1.0 / window), mode="same")


def _peak_bounds(freq, n_peaks, amp_cap):
    span = float(freq[-1] - freq[0])
    # a peak narrower than the sampling is a zero-measure needle that can
    # sit between two samples at any amplitude without touching the data
    w_min = float(np.diff(freq).min())
    npar = 1 + 3 * n_peaks
    lower = np.full(npar, -np.inf)
    upper = np.full(npar, np.inf)
    for k in range(n_peaks):
        lower[1 + 3 * k] = freq[0] - 0.5 * span
        upper[1 + 3 * k] = freq[-1] + 0.5 * span
        lower[2 + 3 * k] = w_min
        upper[2 + 3 * k] = 10.0 * span
        lower[3 + 3 * k] = 0.0
        upper[3 + 3 * k] = amp_cap
    return lower, upper


def _mins_to_higher_peak(peaks, gaps):
    """For each peak in turn, the lowest sample between it and the
    nearest earlier peak that is strictly higher (or the trace's start).

    gaps[k] is the minimum between peak k - 1 and peak k (before the
    first peak for k = 0).  The stack holds the peaks no higher peak has
    passed yet, each with the minimum since the entry below it.
    """
    out, stack_peak, stack_min = [], [], []
    for p, m in zip(peaks, gaps):
        while stack_peak and stack_peak[-1] <= p:
            stack_peak.pop()
            m = min(m, stack_min.pop())
        stack_peak.append(p)
        stack_min.append(m)
        out.append(m)
    return out


def _peak_prominences(x):
    """Local maxima of x and their topographic prominences, in O(n).

    A maximum is a run of equal samples above both neighbouring runs,
    reported at the run's midpoint (rounded down); a run touching either
    end of x is not one.  Prominence is the height above the higher of
    the two lowest points between the peak and the nearest strictly
    higher sample on each side (or the end of x).  Indices and values
    equal scipy.signal.find_peaks(x, prominence=0), whose import costs
    about a second.
    """
    start = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    v = x[start]
    up = v[1:] > v[:-1]
    j = np.flatnonzero(up[:-1] & ~up[1:]) + 1  # runs that are maxima
    if j.size == 0:
        return j, np.empty(0)
    # minima before the first maximum, between maxima and after the last
    gaps = np.minimum.reduceat(v, np.concatenate(([0], j))).tolist()
    heights = v[j].tolist()
    left = _mins_to_higher_peak(heights, gaps)
    right = _mins_to_higher_peak(heights[::-1], gaps[::-1])[::-1]
    end = np.append(start[1:] - 1, x.size - 1)
    return (start[j] + end[j]) // 2, v[j] - np.maximum(left, right)


def _seed_peaks(freq, contrast, n_peaks):
    """Initial PeakSet from the most topographically prominent maxima.

    Prominence (height above the highest saddle) beats raw height here:
    a noise bump riding the shoulder of a strong resonance can be taller
    than a genuine weak peak, but it is never more prominent.
    """
    smooth = _smoothed(contrast)
    base = float(smooth.min())
    span = float(freq[-1] - freq[0])
    width = span / (4.0 * n_peaks)
    idx, prominences = _peak_prominences(smooth)
    order = np.argsort(prominences)[::-1]
    centers = sorted(float(freq[i]) for i in idx[order[:n_peaks]])
    k = 1
    while len(centers) < n_peaks:  # degenerate trace, space seeds evenly
        centers.append(float(freq[0] + span * k / (n_peaks + 1)))
        k += 1
    peaks = []
    for f_c in centers:
        amp = max(float(np.interp(f_c, freq, smooth)) - base, 1e-12)
        peaks.append(LorentzianPeak(center=f_c, fwhm=width, amplitude=amp))
    return PeakSet(peaks=tuple(peaks), baseline=base)


def _misplaced_peak(x, w_min):
    """True when a fitted peak is likely spent on noise or on part of a
    line another peak also models: a needle narrower than two samples
    (w_min is the sample spacing, the width floor), or two peaks closer
    than the sum of their half widths.  Such fits are local minima far
    more often than fits without either."""
    c, w = x[1::3], x[2::3]
    apart = np.abs(c[:, None] - c) >= 0.5 * (w[:, None] + w)
    np.fill_diagonal(apart, True)
    return bool(np.any(w < 2.0 * w_min) or not apart.all())


def _lorentzian_rows(freq, centers, hw2):
    """Unit-height Lorentzians of squared half width hw2 on freq, one row
    per center, built in place."""
    rows = freq - centers[:, None]
    rows *= rows
    rows += hw2
    return np.divide(hw2, rows, out=rows)


def _pursuit_seed(freq, y, n_peaks):
    """Start vector [baseline, c1, w, a1, ...] by orthogonal matching
    pursuit (Mallat & Zhang, IEEE Trans. Signal Process. 41, 3397 (1993)).

    The atoms are Lorentzians of one width w (the trace's interpolated
    FWHM, at least two samples), each mean-removed and scaled to unit
    norm.  They are centred on every grid frequency, or on every k-th
    one where the grid has more than CENTRES_PER_WIDTH samples per w,
    so that neighbouring centres stay within w / CENTRES_PER_WIDTH of
    each other and the scoring cost does not grow with the square of a
    fine grid.  Each step picks the atom with the largest dot product
    with the residual, then solves linear least squares for the baseline
    and every picked amplitude, which leaves the residual orthogonal to
    the constant and to every picked atom.

    The atoms are scored in blocks of ATOM_BLOCK elements, so memory
    stays bounded whatever the grid size; when one block holds them all,
    it is built once and kept for every step.
    """
    n = freq.size
    w = max(_fwhm_interpolated(freq, y), 2.0 * float(np.diff(freq).min()))
    hw2 = 0.25 * w * w
    samples_per_width = w * (n - 1) / float(freq[-1] - freq[0])
    centres = freq[:: max(1, int(samples_per_width / CENTRES_PER_WIDTH))]
    m = centres.size
    rows = max(1, ATOM_BLOCK // n)
    norms = np.empty(m)
    kept = None
    columns = [np.ones(n)]
    picked = []
    r = y - y.mean()
    for step in range(n_peaks):
        dots = np.empty(m)
        for i in range(0, m, rows):
            atoms = kept if kept is not None else _lorentzian_rows(freq, centres[i : i + rows], hw2)
            # r has zero mean, so its dot product with an atom equals that
            # with the mean-removed atom
            dots[i : i + rows] = atoms @ r
            if step == 0:
                total = atoms.sum(axis=1)
                norms[i : i + rows] = np.einsum("ij,ij->i", atoms, atoms) - total * total / n
        if step == 0:
            norms = np.sqrt(norms)
            if rows >= m:
                kept = atoms
        j = int(np.argmax(dots / norms))
        picked.append(j)
        columns.append(_lorentzian_rows(freq, centres[j : j + 1], hw2)[0])
        design = np.column_stack(columns)
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        r = y - design @ coef
    x = [float(coef[0])]
    for j, a in zip(picked, coef[1:]):
        x.extend((float(centres[j]), w, max(float(a), 1e-12)))
    return np.array(x)


def fit_spectrum(data: OdmrSpectrum, n_peaks: int, init: PeakSet | None = None,
                 max_iter: int = 200) -> FitReport:
    """Least-squares multi-Lorentzian decomposition of a spectrum.

    Damped Gauss-Newton with the analytic Jacobian of the Lorentzian
    model.  Without an init, every peak is seeded at once by orthogonal
    matching pursuit (:func:`_pursuit_seed`) and refined in one run,
    which lands next to the global optimum on resolved multiplets.  Only
    when that run does not converge or ends with a needle or two
    overlapping peaks (:func:`_misplaced_peak`) do the older seedings
    run as well: all peaks at once from prominence-ranked maxima, and
    greedy peak-by-peak from the largest smoothed residual bump.  The
    first handles clustered peaks that a greedy residual merges; the
    second handles weak peaks that prominence ranking buries in noise.
    When the better of those two is itself misplaced, each peak in turn
    is moved to the largest residual bump of the others, and the best of
    these refits replaces it if it is cheaper.  The cheapest of all
    candidates wins.  Peaks are returned sorted by center with
    per-parameter uncertainties from the local curvature.
    """
    if n_peaks < 1:
        raise ValueError("n_peaks must be >= 1")
    freq, y = data.frequency, data.contrast
    if freq.size <= 3 * n_peaks + 1:
        raise ValueError(
            f"need more than {3 * n_peaks + 1} points to fit {n_peaks} peaks, "
            f"got {freq.size}"
        )
    if init is not None and len(init.peaks) != n_peaks:
        raise ValueError("init peak count does not match n_peaks")
    span = float(freq[-1] - freq[0])
    width0 = span / (4.0 * n_peaks)
    w_min = float(np.diff(freq).min())
    # amplitudes beyond the data range mark the flat degenerate direction
    # (huge width compensated by baseline), not a resonance
    amp_cap = max(10.0 * float(y.max() - y.min()), 1e-12)
    # the Lorentzian model evaluates to ~1e-10 relative; residuals below
    # that are noise and count as an exact fit
    floor = max(0.5 * (1e-10 * float(np.linalg.norm(y))) ** 2, 1e-30)

    def refine(x0, k):
        lower, upper = _peak_bounds(freq, k, amp_cap)

        def fun(p):
            return multi_lorentzian(p, freq) - y

        def jac(p):
            return multi_lorentzian_jac(p, freq)

        return _lm_least_squares(fun, x0, lower, upper, jac=jac,
                                 max_iter=max_iter, cost_floor=floor)

    def grow(x):
        """x plus one peak seeded at the largest smoothed residual bump."""
        bump = _smoothed(y - multi_lorentzian(x, freq))
        idx = int(np.argmax(bump))
        return np.concatenate([x, [float(freq[idx]), width0, max(float(bump[idx]), 1e-12)]])

    if init is not None:
        best = refine(_pack(init), n_peaks)
    else:
        best = refine(_pursuit_seed(freq, y, n_peaks), n_peaks)
        if not best[3] or _misplaced_peak(best[0], w_min):
            prominent = refine(_pack(_seed_peaks(freq, y, n_peaks)), n_peaks)
            x = np.array([float(y.min())])
            for k in range(1, n_peaks + 1):
                greedy = refine(grow(x), k)
                x = greedy[0]
            fallback = min((prominent, greedy), key=lambda r: r[1])
            if _misplaced_peak(fallback[0], w_min):
                # move each peak in turn to the largest bump the others leave
                others = (np.delete(fallback[0], np.s_[1 + 3 * k : 4 + 3 * k])
                          for k in range(n_peaks))
                moved = min((refine(grow(rest), n_peaks) for rest in others),
                            key=lambda r: r[1])
                # a move back onto the same optimum changes only the rounding
                if moved[1] < (1.0 - LM_TOL) * fallback[1]:
                    fallback = moved
            best = min((best, fallback), key=lambda r: r[1])
    x, cost, jmat, converged, n_iter = best
    sig = _curvature_uncertainties(jmat, cost, freq.size)
    order = np.argsort(x[1::3])
    peaks = []
    uncertainties = []
    pinned = []
    amp_scale = max(float(x[3::3].max()), 1e-30)
    for k in order:
        c, w, a = (float(v) for v in x[1 + 3 * k : 4 + 3 * k])
        peaks.append(LorentzianPeak(center=c, fwhm=w, amplitude=a))
        uncertainties.append(tuple(float(v) for v in sig[1 + 3 * k : 4 + 3 * k]))
        pinned.append(a <= 1e-6 * amp_scale)
    return FitReport(
        peak_set=PeakSet(peaks=tuple(peaks), baseline=float(x[0])),
        baseline_uncertainty=float(sig[0]),
        peak_uncertainties=tuple(uncertainties),
        residual_norm=math.sqrt(2.0 * cost),
        converged=converged,
        pinned=tuple(pinned),
        n_iter=n_iter,
    )


def polarization_from_amplitudes(amplitudes, m_values, nuclear_spin: SpinQuantumNumber,
                                 uncertainties=None) -> PolarizationEstimate:
    """P = sum_i m_i a_i / (I sum_i a_i) with first-order error propagation.

    Amplitudes are the fitted resonance amplitudes assigned to nuclear
    sublevels m_values; the ratio treats them as relative populations.
    Invariant under uniform positive scaling of all amplitudes.
    """
    a = np.asarray(amplitudes, dtype=float)
    m = np.asarray(m_values, dtype=float)
    if a.shape != m.shape or a.ndim != 1:
        raise ValueError("amplitudes and m_values must be equal-length 1-D sequences")
    if np.any(a < 0):
        raise ValueError("amplitudes must be >= 0")
    total = a.sum()
    if total == 0:
        raise ValueError("polarization undefined: all amplitudes are zero")
    spin = nuclear_spin.s
    if np.any(np.abs(m) > spin + 1e-12):
        raise ValueError("m_values must lie within [-I, I]")
    p = float((m * a).sum() / (spin * total))
    p = min(max(p, -1.0), 1.0)  # guard rounding at the boundary
    if uncertainties is None:
        return PolarizationEstimate(p=p, uncertainty=0.0)
    sig = np.asarray(uncertainties, dtype=float)
    if sig.shape != a.shape:
        raise ValueError("uncertainties must match amplitudes in length")
    dp = (m / spin - p) / total
    return PolarizationEstimate(p=p, uncertainty=float(np.sqrt(((dp * sig) ** 2).sum())))


def _voigt(x, sigma: float, gamma: float):
    """Voigt profile V(x; sigma, gamma), dV/dx and dV/dsigma from one
    Faddeeva evaluation.

    With z = (x + i gamma) / (sigma sqrt 2) and c = 1 / (sigma sqrt(2 pi)),
    V = c Re w(z); w'(z) = -2 z w + 2i / sqrt(pi) (Abramowitz & Stegun
    7.1.20) gives dV/dx = c Re w' / (sigma sqrt 2) and
    dV/dsigma = -c Re(w + z w') / sigma.  At sigma = 0, V is the
    Lorentzian and dV/dsigma is exactly 0 (V is even in sigma).

    When Im z = gamma / (sigma sqrt 2) > 18, w + z w' is O(|z|^-3) made
    of O(|z|) terms (dV/dsigma would be 15 % off at sigma/gamma = 4e-4),
    so w' and w + z w' come from the asymptotic series of w (A&S
    7.1.23) instead.  Against mpmath every output is within 1e-9 of its
    largest value for sigma/gamma from 1e-8 to 80.

    For sigma <= 1e-100 gamma the sigma = 0 values are returned: they
    differ from the Voigt ones by O((sigma/gamma)^2), while z * z would
    overflow below sigma/gamma ~ 1e-154 and z itself at subnormal sigma.
    """
    from scipy.special import wofz

    if sigma <= 1e-100 * gamma:
        den = x * x + gamma * gamma
        v = gamma / (math.pi * den)
        return v, -2.0 * x * v / den, np.zeros_like(v)
    s = sigma * math.sqrt(2.0)
    z = (x + 1j * gamma) / s
    w = wofz(z)
    if gamma <= 18.0 * s:
        dw = 2j / _SQRT_PI - 2.0 * z * w
        w_zdw = w + z * dw
    else:
        # w ~ (i / sqrt(pi)) sum_n (2n - 1)!! / 2^n z^-(2n + 1), term by term
        u = 1.0 / (z * z)
        dw = (-1j / _SQRT_PI) * u * (1.0 + u * (1.5 + u * (3.75 + u * (13.125 + u * 59.0625))))
        w_zdw = (-1j / _SQRT_PI) * (u / z) * (
            1.0 + u * (3.0 + u * (11.25 + u * (52.5 + u * 295.3125)))
        )
    c = 1.0 / (s * _SQRT_PI)
    return c * w.real, c * dw.real / s, -c * w_zdw.real / sigma


def esodmr_lineshape(dist: StrainDistribution, d_es: float, natural_fwhm: float,
                     grid, amplitude: float = 1.0) -> OdmrSpectrum:
    """Zero-field ESODMR lineshape: branches at d_es +- E, E ~ N(mean, sigma).

    Each branch is a peak-normalized Lorentzian of half width
    gamma = natural_fwhm / 2 convolved with the strain Gaussian, which is
    a Voigt profile V(x; sigma, gamma) scaled by pi * gamma:

        y(f) = (pi gamma / 2) [V(f - d_es - mean) + V(f - d_es + mean)]

    V is evaluated in closed form through the Faddeeva function
    (:func:`_voigt`); at sigma = 0 it is the Lorentzian itself.  No
    quadrature is involved, so dist.n_quadrature is not used.
    """
    if not natural_fwhm > 0:
        raise ValueError("natural_fwhm must be positive")
    grid = np.asarray(grid, dtype=float)
    gamma = 0.5 * natural_fwhm
    x = grid - d_es
    v = _voigt(x - dist.mean, dist.sigma, gamma)[0]
    # at mean strain 0 the branches coincide, and 2 V is exactly V + V
    pair = 2.0 * v if dist.mean == 0.0 else v + _voigt(x + dist.mean, dist.sigma, gamma)[0]
    y = 0.5 * math.pi * gamma * pair
    return OdmrSpectrum(frequency=grid, contrast=amplitude * y)


def _fwhm_interpolated(freq, y):
    """Full width at half maximum above the trace minimum, linearly
    interpolated at the crossings.  Returns 0.0 for a flat trace."""
    base = float(y.min())
    peak = float(y.max())
    if peak <= base:
        return 0.0
    half = base + 0.5 * (peak - base)
    above = y >= half
    idx = np.flatnonzero(above)
    i0, i1 = idx[0], idx[-1]
    if i0 > 0:
        f_a, f_b = freq[i0 - 1], freq[i0]
        y_a, y_b = y[i0 - 1], y[i0]
        left = f_a + (half - y_a) * (f_b - f_a) / (y_b - y_a)
    else:
        left = freq[0]
    if i1 < y.size - 1:
        f_a, f_b = freq[i1], freq[i1 + 1]
        y_a, y_b = y[i1], y[i1 + 1]
        right = f_a + (half - y_a) * (f_b - f_a) / (y_b - y_a)
    else:
        right = freq[-1]
    return float(right - left)


def fit_strain_distribution(data: OdmrSpectrum, d_es: float, natural_fwhm: float,
                            fit_d_es: bool = False, max_iter: int = 200) -> StrainFitReport:
    """Fit the strain spread sigma (mean fixed at 0) and an overall
    amplitude to a zero-field ESODMR spectrum; optionally refine d_es.

    sigma seeds from the observed width through the Olivero-Longbothum
    Voigt-width relation; the amplitude seeds from the peak height.  A
    flat spectrum is reported as amplitude 0 with sigma unidentifiable.
    """
    freq, y = data.frequency, data.contrast
    if not freq[0] < d_es < freq[-1]:
        raise ValueError(
            f"spectrum window [{freq[0]:g}, {freq[-1]:g}] MHz does not cover d_es = {d_es:g}"
        )
    peak = float(y.max())
    if peak - float(y.min()) <= 1e-300 or peak <= 0:
        return StrainFitReport(
            dist=StrainDistribution(mean=0.0, sigma=0.0),
            amplitude=0.0, d_es=d_es, sigma_uncertainty=math.nan,
            amplitude_uncertainty=math.nan, residual_norm=float(np.linalg.norm(y)),
            converged=True, sigma_pinned=True, unidentifiable=True, n_iter=0,
        )
    # Gaussian part of the observed width via Olivero-Longbothum:
    # w_voigt ~ 0.5346 w_l + sqrt(0.2166 w_l^2 + w_g^2)
    w_obs = _fwhm_interpolated(freq, y)
    g2 = (w_obs - 0.5346 * natural_fwhm) ** 2 - 0.2166 * natural_fwhm**2
    sigma0 = math.sqrt(g2) / 2.3548 if g2 > 0 else 0.25 * natural_fwhm
    span = float(freq[-1] - freq[0])
    sigma0 = min(sigma0, span)
    # peak height of the unit-amplitude model at the band center: grid[0] = d_es
    h0 = float(
        esodmr_lineshape(
            StrainDistribution(mean=0.0, sigma=sigma0),
            d_es, natural_fwhm, d_es + np.arange(8.0) * natural_fwhm,
        ).contrast[0]
    )
    amp0 = peak / max(h0, 1e-12)

    if fit_d_es:
        x0 = np.array([amp0, sigma0, d_es])
        lower = np.array([0.0, 0.0, float(freq[0])])
        upper = np.array([np.inf, span, float(freq[-1])])
    else:
        x0 = np.array([amp0, sigma0])
        lower = np.array([0.0, 0.0])
        upper = np.array([np.inf, span])
    gamma = 0.5 * natural_fwhm

    def fun(p):
        center = p[2] if fit_d_es else d_es
        dist = StrainDistribution(mean=0.0, sigma=float(p[1]))
        return esodmr_lineshape(dist, center, natural_fwhm, freq,
                                amplitude=float(p[0])).contrast - y

    def jac(p):
        # with mean strain 0 both branches coincide: model = A pi gamma V(f - d_es)
        center = p[2] if fit_d_es else d_es
        v, dv_dx, dv_dsigma = _voigt(freq - center, float(p[1]), gamma)
        cols = [math.pi * gamma * v, p[0] * math.pi * gamma * dv_dsigma]
        if fit_d_es:
            cols.append(-p[0] * math.pi * gamma * dv_dx)
        return np.column_stack(cols)

    # residuals below 1e-9 relative count as an exact fit; the Faddeeva
    # evaluation is accurate to ~1e-14 relative, far below this floor
    floor = 0.5 * (1e-9 * float(np.linalg.norm(y))) ** 2
    x, cost, jmat, converged, n_iter = _lm_least_squares(
        fun, x0, lower, upper, jac=jac, max_iter=max_iter,
        cost_floor=max(floor, 1e-30),
    )
    sig = _curvature_uncertainties(jmat, cost, freq.size)
    amp_hat, sigma_hat = float(x[0]), float(x[1])
    return StrainFitReport(
        dist=StrainDistribution(mean=0.0, sigma=sigma_hat),
        amplitude=amp_hat,
        d_es=float(x[2]) if fit_d_es else d_es,
        sigma_uncertainty=float(sig[1]),
        amplitude_uncertainty=float(sig[0]),
        residual_norm=math.sqrt(2.0 * cost),
        converged=converged,
        sigma_pinned=sigma_hat == 0.0,
        unidentifiable=amp_hat <= 1e-12,
        n_iter=n_iter,
    )


def load_spectrum(path) -> OdmrSpectrum:
    """Read a two-column (frequency_mhz, contrast) text spectrum.

    Lines starting with '#' are comments.  Raw fluorescence-decrease
    data (dips pointing down relative to the trace median) is negated on
    ingestion so contrast is always a positive dip depth.
    """
    raw = np.loadtxt(path, comments="#", ndmin=2)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (frequency_mhz, contrast)")
    freq, y = raw[:, 0], raw[:, 1]
    med = np.median(y)
    if abs(float(y.min() - med)) > abs(float(y.max() - med)):
        y = -y
    return OdmrSpectrum(frequency=freq, contrast=y)


def save_spectrum(path, spectrum: OdmrSpectrum, header_lines=()) -> None:
    """Write a spectrum in the two-column text format with '#' comments."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for f, c in zip(spectrum.frequency, spectrum.contrast):
            fh.write("%.17g %.17g\n" % (f, c))


def format_fit_report(report: FitReport, polarization: PolarizationEstimate | None = None) -> str:
    """Structured text fit report: parameter, value, uncertainty per line."""
    lines = [
        f"converged {'true' if report.converged else 'false'}",
        "residual_norm %.17g" % report.residual_norm,
        "iterations %d" % report.n_iter,
        "baseline %.17g %.17g" % (report.peak_set.baseline, report.baseline_uncertainty),
    ]
    for k, (pk, unc, pin) in enumerate(
        zip(report.peak_set.peaks, report.peak_uncertainties, report.pinned), start=1
    ):
        suffix = " pinned" if pin else ""
        lines.append("peak %d center_mhz %.17g %.17g" % (k, pk.center, unc[0]))
        lines.append("peak %d fwhm_mhz %.17g %.17g" % (k, pk.fwhm, unc[1]))
        lines.append("peak %d amplitude %.17g %.17g%s" % (k, pk.amplitude, unc[2], suffix))
    if polarization is not None:
        lines.append("polarization %.17g %.17g" % (polarization.p, polarization.uncertainty))
    return "\n".join(lines) + "\n"


def format_strain_report(report: StrainFitReport) -> str:
    lines = [
        f"converged {'true' if report.converged else 'false'}",
        "residual_norm %.17g" % report.residual_norm,
        "iterations %d" % report.n_iter,
        "sigma_mhz %.17g %.17g" % (report.dist.sigma, report.sigma_uncertainty),
        "amplitude %.17g %.17g" % (report.amplitude, report.amplitude_uncertainty),
        "d_es_mhz %.17g" % report.d_es,
    ]
    if report.sigma_pinned:
        lines.append("sigma_pinned true")
    if report.unidentifiable:
        lines.append("unidentifiable true")
    return "\n".join(lines) + "\n"
