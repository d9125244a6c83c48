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

_ROOT_SEP = 1e-9
_SCAN_XTOL = 1e-14  # a root is refined to within _SCAN_XTOL + _RTOL*|root|
_RTOL = 8.9e-16
_ZERO_TOL = 1e-12  # the zero mode exists when |zero_mode_defect| <= _ZERO_TOL


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


def _reduced_positive(w, params: ModelParams) -> np.ndarray:
    """g = (w^2 + q0 q1) tanh(w)/w + q0 + q1 = -secular_positive / (2 w cosh w).

    It has the roots of :func:`secular_positive` for w > 0, and g(0+) is the
    zero-mode defect, so w = 0 is not a root of g off the zero-mode locus.
    """
    q0 = params.mu0 * (w * w + params.delta(0))
    q1 = params.mu1 * (w * w + params.delta(1))
    return (w * w + q0 * q1) * (np.tanh(w) / w) + q0 + q1


def _reduced_positive_deriv(w, params: ModelParams) -> np.ndarray:
    """Analytic d/dw of :func:`_reduced_positive` for w > 0.

    (tanh(w)/w)' = (w sech^2 w - tanh w)/w^2 cancels as w -> 0, so below
    w = 1e-2 its Taylor series is used.
    """
    mu0, mu1 = params.mu0, params.mu1
    q0 = mu0 * (w * w + params.delta(0))
    q1 = mu1 * (w * w + params.delta(1))
    t = np.tanh(w) / w
    w2 = w * w
    dt = np.where(w < 1e-2, w * (-2.0 / 3.0 + w2 * (8.0 / 15.0 - w2 * (34.0 / 105.0))),
                  (1.0 / np.cosh(w) ** 2 - t) / w)
    return 2.0 * w * ((1.0 + mu0 * q1 + mu1 * q0) * t + mu0 + mu1) + (w2 + q0 * q1) * dt


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


def _w_star(params: ModelParams) -> float:
    """sqrt(max(0, -delta0, -delta1)): at and above it both mu_j (w^2 + delta_j)
    are >= 0, so the exponential family has no root and Phi' >= 1."""
    return math.sqrt(max(0.0, -params.delta(0), -params.delta(1)))


def _phase(w, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi, psi = Phi - Phi(0+) and Phi' of the oscillatory family, for w > 0.

    With p_j = mu_j (w^2 - delta_j) and Phi = w + atan(p0/w) + atan(p1/w),
    ``secular_negative = sqrt(w^2+p0^2) sqrt(w^2+p1^2) sin(Phi)``, so its
    roots are where Phi crosses a multiple of pi, and Phi(0+) =
    -(pi/2)(sign delta0 + sign delta1).  In psi each atan is taken relative
    to its limit at 0+ through arctan2, so psi keeps its relative precision
    as w -> 0, where the two atan terms of Phi cancel.
    """
    phi, psi, dphi = w.copy(), w.copy(), np.ones_like(w)
    for mu, d in ((params.mu0, params.delta(0)), (params.mu1, params.delta(1))):
        p = mu * (w * w - d)
        phi += np.arctan(p / w)
        if d > 0.0:
            psi += np.arctan2(w, -p)
        elif d < 0.0:
            psi -= np.arctan2(w, p)
        else:
            psi += np.arctan(mu * w)
        dphi += mu * (w * w + d) / (w * w + p * p)
    return phi, psi, dphi


def _phase_breaks(params: ModelParams) -> np.ndarray:
    """Points 0 < w < w* that cut the w axis into pieces where Phi is monotone.

    Phi' >= 1 for w >= w* (:func:`_w_star`).  Below, Phi'
    vanishes only where s = w^2 is a root of the quartic
    (s+P0)(s+P1) + mu0 (s+delta0)(s+P1) + mu1 (s+delta1)(s+P0), P_j = p_j^2.
    A real double root can come back from ``np.roots`` as a complex pair, so
    the real part of every root cuts; a cut where Phi' != 0, or a repeated
    cut, only adds a piece.
    """
    mu0, mu1, d0, d1 = params.mu0, params.mu1, params.delta(0), params.delta(1)
    s_max = _w_star(params) ** 2
    if s_max == 0.0:
        return np.empty(0)
    sp0 = [mu0 * mu0, 1.0 - 2.0 * mu0 * mu0 * d0, mu0 * mu0 * d0 * d0]  # s + P0
    sp1 = [mu1 * mu1, 1.0 - 2.0 * mu1 * mu1 * d1, mu1 * mu1 * d1 * d1]
    quartic = np.convolve(sp0, sp1)
    quartic[1:] += np.convolve([mu0, mu0 * d0], sp1) + np.convolve([mu1, mu1 * d1], sp0)
    s = np.roots(quartic).real
    return np.sqrt(np.sort(s[(s > 0.0) & (s < s_max)]))


def _solve_phase(lo, hi, k, h: float, up, params: ModelParams) -> np.ndarray:
    """Solve Phi(w) = k*pi in every bracket [lo, hi] together; h = Phi(0+)/pi.

    Phi increases on the brackets where ``up`` holds and decreases on the
    others.  The trivial level k = h is solved on psi, which keeps its
    precision near w = 0 where such a root can lie; the others on
    Phi - k*pi.  Newton steps, bisecting whenever a step would leave the
    bracket or does not halve the step before it (rtsafe); a point where the
    residual is exactly 0 is kept.
    """
    lo, hi = lo.copy(), hi.copy()
    sgn = np.where(up, 1.0, -1.0)
    x = 0.5 * (lo + hi)
    step = hi - lo
    idx = np.arange(x.size)
    while idx.size:
        xi, s, ki = x[idx], sgn[idx], k[idx]
        phi, psi, dphi = _phase(xi, params)
        f, df = s * np.where(ki == h, psi, phi - ki * math.pi), s * dphi
        below = f < 0.0
        lo[idx[below]] = xi[below]
        hi[idx[~below]] = xi[~below]
        l, u = lo[idx], hi[idx]
        newton = ((((xi - u) * df - f) * ((xi - l) * df - f) < 0.0)
                  & (np.abs(2.0 * f) <= np.abs(step[idx] * df)))
        dx = xi - 0.5 * (l + u)
        dx[newton] = f[newton] / df[newton]
        dx[f == 0.0] = 0.0
        x[idx] = xi - dx
        step[idx] = dx
        idx = idx[np.abs(dx) > _RTOL * xi]
    return x


def _phase_roots(params: ModelParams, k_top: int) -> np.ndarray:
    """Roots of the oscillatory secular function, ascending: every root
    below the last break of Phi, and above it those with Phi = k*pi, k <= k_top.

    On each piece between breaks Phi is monotone and crosses once every
    level k*pi strictly between its end values; a level equal to the value
    at the right end belongs to that piece.  The level Phi(0+) at w = 0 is
    the trivial root and is never counted.  Above the last break Phi
    increases, and Phi - w lies in (-pi, pi), so the level k*pi is crossed
    in ((k-1)*pi, (k+1)*pi).
    """
    h = -0.5 * (np.sign(params.delta(0)) + np.sign(params.delta(1)))  # Phi(0+)/pi
    ends = np.concatenate([[0.0], _phase_breaks(params)])
    vals = [0.0] + _phase(ends[1:], params)[1].tolist()  # psi at the ends
    lo, hi, level, up = [], [], [], []
    for i in range(ends.size - 1):
        va, vb = vals[i], vals[i + 1]
        ks = range(math.floor(min(va, vb) / math.pi + h) - 1,
                   math.ceil(max(va, vb) / math.pi + h) + 2)
        if vb > va:
            ks = [k for k in ks if va < (k - h) * math.pi <= vb]
        else:
            ks = [k for k in reversed(ks) if vb <= (k - h) * math.pi < va]
        lo += [ends[i]] * len(ks)
        hi += [ends[i + 1]] * len(ks)
        level += ks
        up += [vb > va] * len(ks)
    k = math.floor(vals[-1] / math.pi + h) - 1
    while (k - h) * math.pi <= vals[-1]:
        k += 1
    ks = np.arange(k, k_top + 1)
    return _solve_phase(
        np.concatenate([lo, np.maximum(ends[-1], (ks - 1) * math.pi)]),
        np.concatenate([hi, (ks + 1) * math.pi]),
        np.concatenate([level, ks]).astype(float), h,
        np.concatenate([np.array(up, dtype=bool), np.ones(ks.size, dtype=bool)]),
        params)


def _zero_mode_radius_sq(params: ModelParams) -> float:
    """omega^2 up to which a root of either family is the zero mode itself.

    Near lambda = 0 both secular functions, divided as in
    :func:`_reduced_positive`, read defect + g2*lambda (lambda = omega^2 for
    the exponential family and -omega^2 for the oscillatory one).  Where the
    zero mode exists, |defect| <= _ZERO_TOL, and the one root it splits off
    sits at |lambda| <= _ZERO_TOL/|g2|, twice that covering the next order.
    """
    if abs(zero_mode_defect(params)) > _ZERO_TOL:
        return 0.0
    q0, q1 = params.mu0 * params.delta(0), params.mu1 * params.delta(1)
    g2 = 1.0 + params.mu0 + params.mu1 + params.mu0 * q1 + params.mu1 * q0 - q0 * q1 / 3.0
    return 2.0 * _ZERO_TOL / abs(g2) if g2 else 0.0


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


def bracket_counts(params: ModelParams, k_lo: int, k_hi: int) -> dict[int, list[float]]:
    """Roots of the oscillatory secular function per pi-bracket (k*pi,(k+1)*pi)."""
    roots = _phase_roots(params, k_hi)  # a root of level k > k_hi lies above k_hi*pi
    bracket = np.floor(roots / math.pi)
    return {k: roots[bracket == k].tolist() for k in range(k_lo, k_hi)}


def detect_threshold(params: ModelParams) -> tuple[int, list[float]]:
    """Bracket threshold n0 (last pi-bracket whose root count is not 1, -1 if
    none) and the roots in the brackets below K.

    Every bracket from K = ceil(max(w*, w_E)/pi) on holds one root: Phi
    increases above w* (:func:`_w_star`), and Phi - w = atan(p0/w) +
    atan(p1/w) lies in (0, pi) above the one zero
    w_E^2 = (mu0 delta0 + mu1 delta1)/(mu0 + mu1) of p0 + p1.
    """
    mu0, mu1, d0, d1 = params.mu0, params.mu1, params.delta(0), params.delta(1)
    w_e = math.sqrt(max(0.0, (mu0 * d0 + mu1 * d1) / (mu0 + mu1)))
    counts = bracket_counts(params, 0, math.ceil(max(_w_star(params), w_e) / math.pi))
    n0 = max((k for k, roots in counts.items() if len(roots) != 1), default=-1)
    return n0, [w for roots in counts.values() for w in roots]


def find_negative_modes(params: ModelParams, k_max: int) -> list[float]:
    """First ``k_max`` roots of the oscillatory secular equation, ascending.

    The roots are counted and solved on the phase Phi (see
    :func:`_phase_roots`); a root that is the zero mode is dropped.  Every
    root then gets a Newton polish.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    # the first level above the last break is at most ceil(w*/pi) + 1, so this
    # leaves at least k_max + 2 roots
    roots = _phase_roots(params, k_max + math.ceil(_w_star(params) / math.pi) + 2)
    roots = roots[roots * roots > _zero_mode_radius_sq(params)][:k_max]
    roots = np.sort(_polish_negative(roots, params))
    close = np.flatnonzero(np.diff(roots) < _ROOT_SEP)
    if close.size:
        a, b = float(roots[close[0]]), float(roots[close[0] + 1])
        raise BracketCollision(f"roots {a} and {b} closer than {_ROOT_SEP}")
    return roots.tolist()


def find_positive_modes(params: ModelParams) -> tuple[list[float], list[float]]:
    """Roots of the exponential secular equation, split into (physical, flagged).

    There is no root at or above w* (:func:`_w_star`), and w* <= sqrt(w2),
    so every root is physical (omega^2 < w2) and ``flagged`` is empty.
    :func:`_reduced_positive` is scanned on the grid up to its first point at
    or beyond w*, with cells split at extrema, so a near-degenerate pair
    inside one cell is found.  A root that is the zero mode is dropped.
    """
    w_star = _w_star(params)
    if w_star == 0.0:
        return [], []
    xs = np.linspace(1e-9, math.sqrt(params.w2) + 10.0, 10_001)
    _, roots = _scan_roots(lambda w: _reduced_positive(w, params),
                           xs[:np.searchsorted(xs, w_star) + 1],
                           df=lambda w: _reduced_positive_deriv(w, params))
    return roots[roots * roots > _zero_mode_radius_sq(params)].tolist(), []


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
        bulk = (a * a * math.expm1(2.0 * omega) / (2.0 * omega)
                + 2.0 * a * b
                - b * b * math.expm1(-2.0 * omega) / (2.0 * omega))
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
    which need the endpoint traces only.  The atoms are made from the traces,
    so that check fails only for a non-finite row or a calibration that does
    not match the parameters.  Each mode's coefficients are also checked
    against the boundary row at x = 0, X'(0) = mu0 (lambda + delta0) X(0),
    which a wrong eigenfunction fails.  (The row at x = 1 is the secular
    equation, whose residual is the root's.)  A row whose residual exceeds
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
    # X'(0)/g of each closed form, as Mode.dprofile gives it
    d0 = np.array([(m.omega * (m.a_coef - m.b_coef) if m.kind == "pos"
                    else m.omega * m.b_coef if m.kind == "neg" else m.b_coef) / m.g
                   for m in modes])
    k0 = params.mu0 * (np.array([m.lam for m in modes]) + params.delta(0)) * t0
    row0 = d0 - k0
    ok = ((np.maximum(np.abs(r0), np.abs(r1)) <= 1e-9 * scale)
          & (np.abs(row0) <= 1e-9 * np.maximum(np.abs(d0), np.abs(k0))))
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        raise RobinViolation(
            f"mode n={modes[i].n}: robin residual ({float(r0[i])}, {float(r1[i])}), "
            f"boundary row at x=0 {float(row0[i])}")
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
    if include_zero and abs(zero_mode_defect(params)) <= _ZERO_TOL:
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
