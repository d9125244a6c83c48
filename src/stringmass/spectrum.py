"""Secular equations, eigenfunctions and the orthonormal basis {Y_n}.

Three eigenvalue families exist: an infinite oscillatory family with
lambda = -omega^2 (one root per pi-bracket above a parameter-dependent
threshold), a finite exponential family with lambda = +omega^2 (only when
a spring is detuned below the string, and physical only while
lambda < w2), and an affine zero mode on a codimension-one parameter locus.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketCollision, RobinViolation
from .model import CalibratedMeasure, ModelParams, calibrate
from .mufunc import Basis, GridSpec, MuFunction, simpson_weights

_SCAN_SUBDIV = 4096
_SCAN_BRACKETS = 20  # dense-scan range (0, 20*pi) used for n0 detection
_ROOT_SEP = 1e-9
_SCAN_XTOL = 1e-14  # a root is refined to within _SCAN_XTOL + _RTOL*|root|
_RTOL = 8.9e-16


def secular_negative(omega, params: ModelParams):
    """Characteristic function for the oscillatory family (zero at eigenfrequencies)."""
    w = np.asarray(omega, dtype=float)
    d0, d1 = params.delta(0), params.delta(1)
    p0 = params.mu0 * (w * w - d0)
    p1 = params.mu1 * (w * w - d1)
    val = (w * w - p0 * p1) * np.sin(w) + (p0 + p1) * w * np.cos(w)
    return val if val.ndim else float(val)


def secular_negative_deriv(omega, params: ModelParams):
    """Analytic d/domega of :func:`secular_negative` (used for Newton polish)."""
    w = np.asarray(omega, dtype=float)
    d0, d1 = params.delta(0), params.delta(1)
    mu0, mu1 = params.mu0, params.mu1
    a = w * w - mu0 * mu1 * (w * w - d0) * (w * w - d1)
    b = (mu0 * (w * w - d0) + mu1 * (w * w - d1)) * w
    da = 2.0 * w * (1.0 - mu0 * mu1 * (2.0 * w * w - d0 - d1))
    db = 2.0 * w * w * (mu0 + mu1) + mu0 * (w * w - d0) + mu1 * (w * w - d1)
    val = da * np.sin(w) + a * np.cos(w) + db * np.cos(w) - b * np.sin(w)
    return val if val.ndim else float(val)


def secular_positive(omega, params: ModelParams):
    """Characteristic function for the exponential family."""
    w = np.asarray(omega, dtype=float)
    d0, d1 = params.delta(0), params.delta(1)
    q0 = params.mu0 * (w * w + d0)
    q1 = params.mu1 * (w * w + d1)
    val = (np.exp(-w) * (w - q0) * (w - q1)
           - np.exp(w) * (w + q0) * (w + q1))
    return val if val.ndim else float(val)


def secular_positive_deriv(omega, params: ModelParams):
    """Analytic d/domega of :func:`secular_positive`."""
    w = np.asarray(omega, dtype=float)
    d0, d1 = params.delta(0), params.delta(1)
    mu0, mu1 = params.mu0, params.mu1
    a0, a1 = w - mu0 * (w * w + d0), w - mu1 * (w * w + d1)
    c0, c1 = w + mu0 * (w * w + d0), w + mu1 * (w * w + d1)
    val = (np.exp(-w) * ((1.0 - 2.0 * mu0 * w) * a1 + a0 * (1.0 - 2.0 * mu1 * w)
                         - a0 * a1)
           - np.exp(w) * ((1.0 + 2.0 * mu0 * w) * c1 + c0 * (1.0 + 2.0 * mu1 * w)
                          + c0 * c1))
    return val if val.ndim else float(val)


def _refine(f, lo, hi, flo, xtol: float) -> np.ndarray:
    """Bisect all brackets [lo, hi] of ``f`` together; ``flo`` holds f(lo).

    Each bracket is halved until it is narrower than xtol + _RTOL*|x| or f
    vanishes at its midpoint; the midpoints are returned.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    neg = np.asarray(flo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        idx = np.flatnonzero(hi - lo >= xtol + _RTOL * np.abs(mid))
        if idx.size == 0:
            return mid
        m = mid[idx]
        fm = f(m)
        zero = fm == 0.0
        up = ((fm < 0.0) == neg[idx]) | zero  # f(m) has f(lo)'s sign: root above m
        down = ~up | zero
        lo[idx[up]] = m[up]
        hi[idx[down]] = m[down]


def _scan_roots(f, xs, xtol: float = _SCAN_XTOL, df=None):
    """Sign-change roots of ``f`` on every row of the scan grid ``xs``.

    Returns (rows, roots) row by row and ascending within a row, the order in
    which a cell-by-cell scan meets them.  A grid point where f is exactly 0
    is a root, and so is one point of each cell whose end values differ in
    sign.  Given the derivative ``df``, a cell where f keeps its sign but df
    changes sign is split at the extremum when f changes sign there, which
    recovers a pair of roots closer together than the grid step.
    """
    xs = np.atleast_2d(xs)
    ys = f(xs)
    rz, cz = np.nonzero(ys == 0.0)
    prod = ys[:, :-1] * ys[:, 1:]
    r, c = np.nonzero(prod < 0.0)
    lo, hi, flo = xs[r, c], xs[r, c + 1], ys[r, c]
    if df is not None:
        ds = df(xs)
        re, ce = np.nonzero((prod > 0.0) & (ds[:, :-1] * ds[:, 1:] < 0.0))
        ext = _refine(df, xs[re, ce], xs[re, ce + 1], ds[re, ce], xtol)
        fe = f(ext)
        split = fe * ys[re, ce] < 0.0
        re, ce, ext, fe = re[split], ce[split], ext[split], fe[split]
        r = np.concatenate([r, re, re])
        lo = np.concatenate([lo, xs[re, ce], ext])
        hi = np.concatenate([hi, ext, xs[re, ce + 1]])
        flo = np.concatenate([flo, ys[re, ce], fe])
    rows = np.concatenate([rz, r])
    roots = np.concatenate([xs[rz, cz], _refine(f, lo, hi, flo, xtol)])
    order = np.lexsort((roots, rows))
    return rows[order], roots[order]


def _polish_negative(omega, params: ModelParams) -> np.ndarray:
    """Up to three Newton steps on every root; a root stops at a zero
    derivative or at a step longer than 0.1."""
    omega = np.array(omega, dtype=float)
    idx = np.arange(omega.size)
    for _ in range(3):
        w = omega[idx]
        df = secular_negative_deriv(w, params)
        step = secular_negative(w, params)
        go = df != 0.0
        step[go] /= df[go]
        go &= ~(np.abs(step) > 0.1)
        idx = idx[go]
        omega[idx] -= step[go]
    return omega


def bracket_counts(params: ModelParams, k_lo: int, k_hi: int,
                   subdiv: int = _SCAN_SUBDIV) -> dict[int, list[float]]:
    """Roots of the oscillatory secular function per pi-bracket (k*pi,(k+1)*pi)."""
    ks = np.arange(k_lo, k_hi)
    lo = np.maximum(ks * math.pi, 1e-9) + 1e-9
    hi = (ks + 1) * math.pi - 1e-9
    rows, roots = _scan_roots(lambda w: secular_negative(w, params),
                              np.linspace(lo, hi, subdiv + 1, axis=-1))
    return {k: roots[rows == i].tolist() for i, k in enumerate(range(k_lo, k_hi))}


def detect_threshold(params: ModelParams) -> tuple[int, list[float]]:
    """Bracket threshold n0 (last bracket below 20*pi with root count != 1)
    and all roots found in the dense-scan range."""
    counts = bracket_counts(params, 0, _SCAN_BRACKETS)
    n0 = -1
    roots = []
    for k in range(_SCAN_BRACKETS):
        if len(counts[k]) != 1:
            n0 = k
        roots.extend(counts[k])
    return n0, sorted(roots)


def find_negative_modes(params: ModelParams, k_max: int) -> list[float]:
    """First ``k_max`` roots of the oscillatory secular equation, ascending.

    The low range is handled by a dense sign scan; above it each pi-bracket
    whose ends differ in sign is bisected, all of them together, and any
    other bracket is scanned densely.  Every root then gets a Newton polish.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _, roots = detect_threshold(params)
    f = lambda w: secular_negative(w, params)
    k = _SCAN_BRACKETS
    while len(roots) < k_max:
        ks = np.arange(k, k + k_max - len(roots))
        lo = ks * math.pi + 1e-8
        hi = (ks + 1) * math.pi - 1e-8
        flo = f(lo)
        one = flo * f(hi) < 0.0
        rows, scanned = _scan_roots(
            f, np.linspace(lo[~one], hi[~one], _SCAN_SUBDIV + 1, axis=-1))
        bracket = np.concatenate([np.flatnonzero(one), np.flatnonzero(~one)[rows]])
        found = np.concatenate([_refine(f, lo[one], hi[one], flo[one], 1e-13),
                                scanned])
        roots.extend(found[np.argsort(bracket, kind="stable")].tolist())
        k += ks.size
    roots = np.sort(_polish_negative(roots[:k_max], params))
    close = np.flatnonzero(np.diff(roots) < _ROOT_SEP)
    if close.size:
        a, b = float(roots[close[0]]), float(roots[close[0] + 1])
        raise BracketCollision(f"roots {a} and {b} closer than {_ROOT_SEP}")
    return roots.tolist()


def find_positive_modes(params: ModelParams,
                        omega_cap: float | None = None) -> tuple[list[float], list[float]]:
    """Roots of the exponential secular equation, split into (physical, flagged).

    Physical roots satisfy omega^2 < w2 (lambda below the string threshold);
    any further roots up to ``omega_cap`` are returned flagged.  The scan
    splits cells at extrema of the secular function, so a near-degenerate
    pair of roots inside one cell is found.
    """
    w_phys = math.sqrt(params.w2)
    cap = omega_cap if omega_cap is not None else w_phys + 10.0
    _, roots = _scan_roots(lambda w: secular_positive(w, params),
                           np.linspace(1e-9, cap, 10_001),
                           df=lambda w: secular_positive_deriv(w, params))
    roots = roots.tolist()
    physical = [w for w in roots if w < w_phys]
    flagged = [w for w in roots if w >= w_phys]
    return physical, flagged


def zero_mode_defect(params: ModelParams) -> float:
    """(1 + mu0*delta0)(1 + mu1*delta1) - 1; the zero mode exists iff this vanishes."""
    return ((1.0 + params.mu0 * params.delta(0))
            * (1.0 + params.mu1 * params.delta(1)) - 1.0)


@dataclass(frozen=True)
class Mode:
    """One eigenpair of the generalized Laplacian.

    ``n`` is negative for the exponential family, 0 for the zero mode and
    positive for the oscillatory family.  ``g`` normalizes the interior
    profile so that the basis function has unit mu-norm.
    """

    n: int
    kind: str  # "neg" | "zero" | "pos"
    omega: float
    lam: float
    a_coef: float
    b_coef: float
    g: float
    g_formula: float | None = None
    g_warning: bool = False

    def profile(self, x):
        """Unnormalized interior eigenfunction X(x)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "neg":
            return (self.a_coef * np.cos(self.omega * x)
                    + self.b_coef * np.sin(self.omega * x))
        if self.kind == "pos":
            return (self.a_coef * np.exp(self.omega * x)
                    + self.b_coef * np.exp(-self.omega * x))
        return self.a_coef + self.b_coef * x

    def dprofile(self, x):
        """Analytic X'(x)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "neg":
            return self.omega * (-self.a_coef * np.sin(self.omega * x)
                                 + self.b_coef * np.cos(self.omega * x))
        if self.kind == "pos":
            return self.omega * (self.a_coef * np.exp(self.omega * x)
                                 - self.b_coef * np.exp(-self.omega * x))
        return np.full_like(x, self.b_coef)


def eigenfunction_closed_form(kind: str, omega: float,
                              params: ModelParams) -> tuple[float, float]:
    """Coefficients (a, b) of the closed-form eigenfunction of the given family."""
    d0 = params.delta(0)
    if kind == "neg":
        return omega, params.mu0 * (d0 - omega * omega)
    if kind == "pos":
        q0 = params.mu0 * (omega * omega + d0)
        return omega + q0, omega - q0
    if kind == "zero":
        return 1.0, params.mu0 * d0
    raise ValueError(f"unknown mode class {kind!r}")


def _profile_norm_sq(kind: str, omega: float, a: float, b: float,
                     params: ModelParams) -> float:
    """Exact value of int_0^1 X^2 + mu0 X(0)^2 + mu1 X(1)^2.

    This equals g^2: the measure atoms contribute
    alpha_j (1-alpha_j mu_j delta_j)^2 X(j)^2 = mu_j X(j)^2
    by the calibration cubic, so the closed-form modified norm of X is the
    mu-norm of the basis function scaled by g.
    """
    if kind == "neg":
        s2 = math.sin(2.0 * omega)
        ssq = math.sin(omega) ** 2
        bulk = (a * a * (0.5 + s2 / (4.0 * omega))
                + a * b * ssq / omega
                + b * b * (0.5 - s2 / (4.0 * omega)))
        x1 = a * math.cos(omega) + b * math.sin(omega)
    elif kind == "pos":
        bulk = (a * a * (math.exp(2.0 * omega) - 1.0) / (2.0 * omega)
                + 2.0 * a * b
                + b * b * (1.0 - math.exp(-2.0 * omega)) / (2.0 * omega))
        x1 = a * math.exp(omega) + b * math.exp(-omega)
    else:
        bulk = a * a + a * b + b * b / 3.0
        x1 = a + b
    x0 = a if kind != "pos" else a + b
    return bulk + params.mu0 * x0 * x0 + params.mu1 * x1 * x1


def normalization_formula(omega: float, params: ModelParams) -> float:
    """g_n^2 as printed for the oscillatory family (kept for cross-checking)."""
    d0, d1 = params.delta(0), params.delta(1)
    mu0, mu1 = params.mu0, params.mu1
    w2n = omega * omega
    num = w2n + mu0 * mu0 * (w2n - d0) ** 2
    den = w2n + mu1 * mu1 * (w2n - d1) ** 2
    g2 = 0.5 * (mu0 * d0 + (1.0 + mu0) * w2n
                + mu0 * mu0 * (w2n - d0) ** 2
                + mu1 * mu1 * (w2n + d1) * num / den)
    return math.sqrt(g2) if g2 > 0 else float("nan")


def _make_mode(n: int, kind: str, omega: float, lam: float,
               params: ModelParams) -> Mode:
    a, b = eigenfunction_closed_form(kind, omega, params)
    g = math.sqrt(_profile_norm_sq(kind, omega, a, b, params))
    g_formula = None
    warn = False
    if kind == "neg":
        g_formula = normalization_formula(omega, params)
        warn = not (math.isfinite(g_formula)
                    and abs(g_formula - g) <= 1e-6 * g)
    return Mode(n=n, kind=kind, omega=omega, lam=lam, a_coef=a, b_coef=b,
                g=g, g_formula=g_formula, g_warning=warn)


def _sample_basis(modes: list[Mode], params: ModelParams,
                  cal: CalibratedMeasure, grid: GridSpec) -> Basis:
    """Y_n of every mode: interior X/g, atoms (1-alpha_j mu_j delta_j) X(j)/g.

    Every row is checked against the Robin condition with the atom terms of
    ``rn_derivative``, dF/dmu(j) = (-1)^j (trace_j(F) - F(j)) / alpha_j,
    which need the endpoint traces only.  A row whose residual exceeds
    1e-9 of its scale, or is not finite, raises ``RobinViolation``.
    """
    x = grid.x
    vals = np.empty((len(modes), x.size))
    for row, m in zip(vals, modes):
        np.divide(m.profile(x), m.g, out=row)
    t0, t1 = vals[:, 0], vals[:, -1]
    v0 = (1.0 - cal.alpha0 * params.mu0 * params.delta(0)) * t0
    v1 = (1.0 - cal.alpha1 * params.mu1 * params.delta(1)) * t1
    r0 = (t0 - v0) / cal.alpha0 - cal.a0 * v0
    r1 = (t1 - v1) / cal.alpha1 - cal.a1 * v1
    scale = np.maximum(1.0, np.maximum(np.abs(cal.a0 * v0), np.abs(cal.a1 * v1)))
    bad = np.flatnonzero(~(np.maximum(np.abs(r0), np.abs(r1)) <= 1e-9 * scale))
    if bad.size:
        i = bad[0]
        raise RobinViolation(
            f"mode n={modes[i].n}: robin residual ({float(r0[i])}, {float(r1[i])})")
    return Basis(vals, v0, v1)


def basis_mode(mode: Mode, params: ModelParams, cal: CalibratedMeasure,
               grid: GridSpec) -> MuFunction:
    """Sampled basis function Y_n of one mode (see :func:`_sample_basis`)."""
    return _sample_basis([mode], params, cal, grid)[0]


@dataclass
class Spectrum:
    """Ordered eigenpairs plus the sampled basis, cached per grid."""

    params: ModelParams
    cal: CalibratedMeasure
    modes: list[Mode]
    n_max: int
    nonphysical_omegas: list[float] = field(default_factory=list)
    _basis_cache: dict = field(default_factory=dict, repr=False)

    @property
    def negative_modes(self) -> list[Mode]:
        return [m for m in self.modes if m.kind == "neg"]

    @property
    def lambdas(self) -> np.ndarray:
        return np.asarray([m.lam for m in self.modes])

    def basis(self, grid: GridSpec) -> Basis:
        key = grid.n_grid
        if key not in self._basis_cache:
            self._basis_cache[key] = _sample_basis(self.modes, self.params,
                                                   self.cal, grid)
        return self._basis_cache[key]


def build_spectrum(params: ModelParams, cal: CalibratedMeasure | None = None,
                   n_neg: int = 64, include_positive: bool = True,
                   include_zero: bool = True) -> Spectrum:
    """Solve all three secular problems and assemble the mode list."""
    if cal is None:
        cal = calibrate(params)
    modes: list[Mode] = []
    flagged: list[float] = []
    if include_positive:
        physical, flagged = find_positive_modes(params)
        for i, w in enumerate(sorted(physical, reverse=True)):
            modes.append(_make_mode(-(i + 1), "pos", w, w * w, params))
        modes.sort(key=lambda m: m.n)
    if include_zero and abs(zero_mode_defect(params)) <= 1e-12:
        modes.append(_make_mode(0, "zero", 0.0, 0.0, params))
    for i, w in enumerate(find_negative_modes(params, n_neg)):
        modes.append(_make_mode(i + 1, "neg", w, -w * w, params))
    return Spectrum(params=params, cal=cal, modes=modes, n_max=n_neg,
                    nonphysical_omegas=flagged)


def asymptote_error(omega: float, params: ModelParams) -> float:
    """|omega - k*pi - (1/mu0 + 1/mu1)/(k*pi)| with k the nearest bracket index."""
    k = max(1, int(round(omega / math.pi)))
    c = 1.0 / params.mu0 + 1.0 / params.mu1
    return abs(omega - k * math.pi - c / (k * math.pi))


def gram_matrix(spec: Spectrum, grid: GridSpec, n_modes: int) -> np.ndarray:
    """Gram matrix <Y_m, Y_n>_mu of the first ``n_modes`` basis functions."""
    basis = spec.basis(grid)[:n_modes]
    B, a0, a1 = basis.values, basis.v0, basis.v1
    G = (B * simpson_weights(grid.n_grid)) @ B.T
    G += spec.cal.alpha0 * np.outer(a0, a0) + spec.cal.alpha1 * np.outer(a1, a1)
    return G


def export_csv(spec: Spectrum, path, header: Sequence[str] = ()) -> None:
    """Spectrum table: n, class, omega, lambda, g, asymptote_error.

    ``header`` lines (e.g. a ``# config=`` stamp) are written first.
    """
    lines = [*header, "n,class,omega,lambda,g,asymptote_error"]
    for m in spec.modes:
        err = (f"{asymptote_error(m.omega, spec.params):.17g}"
               if m.kind == "neg" else "nan")
        lines.append(f"{m.n},{m.kind},{m.omega:.17g},{m.lam:.17g},"
                     f"{m.g:.17g},{err}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
