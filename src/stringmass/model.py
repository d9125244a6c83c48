"""Physical parameters and calibration of the singular boundary measure.

The model is a unit string with restoring constant ``w2`` carrying point
masses ``mu0``, ``mu1`` at the ends, each attached to a spring with squared
frequency ``w02``, ``w12``.  The measure mu = alpha0*delta_0 + Lebesgue +
alpha1*delta_1 and the Robin couplings A(j) are fixed by requiring that the
generalized Laplacian reproduces the physical boundary conditions, which
leads to the cubic

    alpha * (1 - alpha*mu_j*delta_j)**2 = mu_j,   delta_j := w_j2 - w2,

and A(j) = mu_j*delta_j / (1 - alpha_j*mu_j*delta_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchAmbiguity,
    DegenerateBranch,
    NoRealPositiveRoot,
    ToleranceNotMet,
    ValidationFailed,
)

_HOMOTOPY_STEPS = 8
_PROBE_LAMBDAS = (-7.3, -1.0, 0.42)
_PROBE_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """The five dimensionless physical constants of the model."""

    mu0: float
    mu1: float
    w2: float
    w02: float
    w12: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.mu0, self.mu1, self.w2, self.w02, self.w12)):
            raise ValueError("model parameters must be finite")
        if not (self.mu0 > 0 and self.mu1 > 0):
            raise ValueError("boundary mass ratios must be positive")
        if not self.w2 > 0:
            raise ValueError("string restoring constant w2 must be positive")
        if self.w02 < 0 or self.w12 < 0:
            raise ValueError("boundary spring frequencies must be nonnegative")

    def mu(self, j: int) -> float:
        return (self.mu0, self.mu1)[j]

    def delta(self, j: int) -> float:
        """Detuning delta_j = w_j2 - w2 of spring j from the string."""
        return ((self.w02 - self.w2), (self.w12 - self.w2))[j]


@dataclass(frozen=True)
class CalibratedMeasure:
    """Measure weights and Robin couplings derived from :class:`ModelParams`.

    ``branch0``/``branch1`` record the sign of (1 - alpha_j*mu_j*delta_j)
    on the selected root of the calibration cubic.
    """

    alpha0: float
    alpha1: float
    a0: float
    a1: float
    c0: float
    c1: float
    branch0: int
    branch1: int

    def alpha(self, j: int) -> float:
        return (self.alpha0, self.alpha1)[j]

    def a(self, j: int) -> float:
        return (self.a0, self.a1)[j]

    def c(self, j: int) -> float:
        return (self.c0, self.c1)[j]

    def branch(self, j: int) -> int:
        return (self.branch0, self.branch1)[j]


def cubic_residual(alpha: float, mu_j: float, delta_j: float) -> float:
    """Residual of the calibration cubic alpha*(1-alpha*mu*delta)**2 - mu."""
    return alpha * (1.0 - alpha * mu_j * delta_j) ** 2 - mu_j


def calibrate_alpha(mu_j: float, delta_j: float, tol: float = 1e-12) -> list[float]:
    """All positive real roots of the calibration cubic, ascending.

    For delta_j == 0 the cubic collapses and the unique root is mu_j.
    """
    if mu_j <= 0:
        raise ValueError("mu_j must be positive")
    if not 0 < tol <= 1e-6:
        raise ValueError("tol must lie in (0, 1e-6]")
    if delta_j == 0.0:
        return [mu_j]

    md = mu_j * delta_j
    if abs(md) <= 1e-12:
        # the two far roots (order 1/md) are beyond the 1e12 cutoff below and
        # the near root beta = md*alpha underflows in np.roots, so start the
        # Newton polish directly from the limiting root alpha = mu_j
        roots = np.array([mu_j])
    else:
        # substitute beta = md*alpha: the cubic beta*(1-beta)^2 = mu*md is
        # monic and well conditioned even for small detunings
        roots = np.roots([1.0, -2.0, 1.0, -mu_j * md]) / md
    scale = max(1.0, mu_j, abs(md))
    cand = sorted(
        float(r.real)
        for r in roots
        # drop numerically meaningless far roots (order 1/(mu*delta)^2 as
        # delta -> 0); the physical branch always stays near alpha = mu
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and 0 < r.real < 1e12
    )
    if not cand:
        raise NoRealPositiveRoot(
            f"no positive real root for mu={mu_j}, delta={delta_j}"
        )

    def _resid_scale(a: float) -> float:
        # backward-error scale: sum of magnitudes of the cubic's terms
        return mu_j + a * (1.0 + abs(md) * a) ** 2

    out = []
    for a in cand:
        # Newton polish; np.roots is accurate but not always to 1e-12 residual.
        for _ in range(50):
            f = cubic_residual(a, mu_j, delta_j)
            if abs(f) <= tol * _resid_scale(a):
                break
            df = (1.0 - md * a) ** 2 - 2.0 * md * a * (1.0 - md * a)
            if df == 0.0:
                break
            a -= f / df
        if abs(cubic_residual(a, mu_j, delta_j)) > tol * _resid_scale(a):
            raise ToleranceNotMet(
                f"refinement stalled at alpha={a} (mu={mu_j}, delta={delta_j})"
            )
        out.append(a)
    out.sort()
    # drop near-duplicates produced by a double root
    dedup: list[float] = []
    for a in out:
        if not dedup or abs(a - dedup[-1]) > 1e-9 * scale:
            dedup.append(a)
    return dedup


def coupling_A(mu_j: float, delta_j: float, alpha_j: float) -> float:
    """Robin coupling A(j) = mu_j*delta_j / (1 - alpha_j*mu_j*delta_j)."""
    denom = 1.0 - alpha_j * mu_j * delta_j
    if abs(denom) <= 1e-12 * (1.0 + abs(alpha_j * mu_j * delta_j)):
        raise DegenerateBranch(
            f"1 - alpha*mu*delta vanishes (mu={mu_j}, delta={delta_j})"
        )
    return mu_j * delta_j / denom


def _probe_ok(alpha: float, mu_j: float, delta_j: float) -> bool:
    """Check that the transformed eigencondition reproduces the physical one.

    The trace boundary coefficient alpha*(1-alpha*mu*delta)**2 * lam + mu*delta
    must equal mu*(lam + delta) for all lam; probed at three values.
    """
    for lam in _PROBE_LAMBDAS:
        lhs = alpha * (1.0 - alpha * mu_j * delta_j) ** 2 * lam + mu_j * delta_j
        rhs = mu_j * (lam + delta_j)
        if abs(lhs - rhs) > _PROBE_TOL * max(1.0, abs(rhs)):
            return False
    return True


def _continue_root(mu_j: float, delta_j: float, tol: float) -> float:
    """Track the root connected to alpha=mu_j under continuation in delta."""
    alpha = mu_j
    for s in np.linspace(0.0, 1.0, _HOMOTOPY_STEPS + 1)[1:]:
        roots = calibrate_alpha(mu_j, float(s * delta_j), tol)
        dists = [abs(r - alpha) for r in roots]
        order = np.argsort(dists)
        if len(roots) > 1:
            d0, d1 = dists[order[0]], dists[order[1]]
            if d1 - d0 <= 1e-9 * max(1.0, alpha):
                raise BranchAmbiguity(
                    f"roots collide during continuation (mu={mu_j}, delta={delta_j})"
                )
        alpha = roots[order[0]]
    return alpha


def _calibrate_endpoint(mu_j: float, delta_j: float, tol: float):
    try:
        alpha = _continue_root(mu_j, delta_j, tol)
        if not _probe_ok(alpha, mu_j, delta_j):
            raise ValidationFailed("continued root fails probe")
    except (BranchAmbiguity, ValidationFailed):
        # fall back: smallest positive root passing the probe validation
        for cand in calibrate_alpha(mu_j, delta_j, tol):
            if _probe_ok(cand, mu_j, delta_j):
                alpha = cand
                break
        else:
            raise ValidationFailed(
                f"no calibration root passes the probe (mu={mu_j}, delta={delta_j})"
            )
    a = coupling_A(mu_j, delta_j, alpha)
    branch = 1 if (1.0 - alpha * mu_j * delta_j) >= 0 else -1
    return alpha, a, branch


def calibrate(params: ModelParams, tol: float = 1e-12) -> CalibratedMeasure:
    """Fix (alpha_j, A(j), C(j)) from the physical constants.

    Root selection follows a short homotopy from the delta=0 root alpha=mu;
    every accepted root is validated against the physical boundary
    conditions at three probe eigenvalues.
    """
    alpha0, a0, b0 = _calibrate_endpoint(params.mu0, params.delta(0), tol)
    alpha1, a1, b1 = _calibrate_endpoint(params.mu1, params.delta(1), tol)
    return CalibratedMeasure(
        alpha0=alpha0,
        alpha1=alpha1,
        a0=a0,
        a1=a1,
        c0=a0 * alpha0,
        c1=a1 * alpha1,
        branch0=b0,
        branch1=b1,
    )
