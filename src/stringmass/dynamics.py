"""Time evolution: exact mode expansion and a finite-difference oracle.

Mode evolution rotates each coefficient pair at its exact frequency
sqrt(w2 - lambda_n); the finite-difference path integrates the original
Newtonian system (string interior plus boundary-particle ODEs) with a
velocity-Verlet leapfrog and is used for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, CFLViolation, FrequencyDomainError, GridMismatch
from .model import CalibratedMeasure, ModelParams
from .mufunc import (Basis, GridSpec, MuFunction, inner_mu, norm_mu, rn_derivative,
                     simpson_weights)
from .spectrum import Spectrum

_BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class CauchyData:
    """Configuration/velocity pair at a fixed time."""

    Q: MuFunction
    P: MuFunction
    time: float = 0.0

    def __post_init__(self):
        if self.Q.n_grid != self.P.n_grid:
            raise GridMismatch("Q and P live on different grids")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.Q.n_grid)


@dataclass
class ModeCoefficients:
    """Coefficients of Cauchy data in the Y_n basis."""

    q: np.ndarray
    p: np.ndarray
    spectrum: Spectrum
    n_grid: int
    truncation_residual: float = float("nan")

    @property
    def frequencies(self) -> np.ndarray:
        """sqrt(w2 - lambda_n) for the carried modes."""
        lam = self.spectrum.lambdas[: self.q.size]
        return np.sqrt(self.spectrum.params.w2 - lam)


def project(data: CauchyData, spec: Spectrum,
            n_modes: int | None = None) -> ModeCoefficients:
    """Coefficients Q_n = <Y_n,Q>_mu, P_n = <Y_n,P>_mu plus truncation residual."""
    grid = data.grid
    basis = spec.basis(grid)
    if n_modes is not None:
        basis = basis[:n_modes]
    # <Y_n, F>_mu for every n at once: the atom terms plus one Simpson matmul
    w = simpson_weights(grid.n_grid)
    q, p = (spec.cal.alpha0 * basis.v0 * F.v0 + spec.cal.alpha1 * basis.v1 * F.v1
            + basis.values @ (w * F.values) for F in (data.Q, data.P))
    rec = _reconstruct(q, basis)
    resid = norm_mu(data.Q - rec, spec.cal)
    return ModeCoefficients(q=q, p=p, spectrum=spec, n_grid=grid.n_grid,
                            truncation_residual=resid)


def _reconstruct(coeffs: np.ndarray, basis: Basis) -> MuFunction:
    return MuFunction(coeffs @ basis.values, float(coeffs @ basis.v0),
                      float(coeffs @ basis.v1))


def evolve_modes(coeffs: ModeCoefficients, t: float) -> CauchyData:
    """Exact oscillator rotation of every mode, reconstructed on the grid.

    For real input coefficients the reconstruction is real up to rounding;
    an imaginary residue above 1e-12 of the data scale raises.
    """
    spec = coeffs.spectrum
    lam = spec.lambdas[: coeffs.q.size]
    if np.any(lam >= spec.params.w2):
        raise FrequencyDomainError("a mode with lambda >= w2 cannot oscillate")
    om = np.sqrt(spec.params.w2 - lam)
    q0 = np.asarray(coeffs.q, dtype=complex)
    p0 = np.asarray(coeffs.p, dtype=complex)
    plus = 0.5 * (q0 - 1j * p0 / om) * np.exp(1j * om * t)
    minus = 0.5 * (q0 + 1j * p0 / om) * np.exp(-1j * om * t)
    qt = plus + minus
    pt = 1j * om * (plus - minus)
    scale = max(1.0, float(np.max(np.abs(qt))), float(np.max(np.abs(pt))))
    if (np.isrealobj(coeffs.q) and np.isrealobj(coeffs.p)
            and max(np.max(np.abs(qt.imag)), np.max(np.abs(pt.imag)))
            > 1e-12 * scale):
        raise FrequencyDomainError("imaginary residue in real evolution")
    basis = spec.basis(GridSpec(coeffs.n_grid))[: coeffs.q.size]
    Q = _reconstruct(qt.real, basis)
    P = _reconstruct(pt.real, basis)
    return CauchyData(Q=Q, P=P, time=t)


def hamiltonian(data: CauchyData, params: ModelParams,
                cal: CalibratedMeasure) -> float:
    """Full grid-level Hamiltonian including the off-domain constraint term.

    Evaluated with the same Radon-Nikodym stack as the Laplacian; off the
    Robin domain the constraint term is representation-dependent.
    """
    dQ = rn_derivative(data.Q, cal)
    d2Q = rn_derivative(dQ, cal)
    h = (0.5 * inner_mu(data.P, data.P, cal)
         + 0.5 * inner_mu(dQ, dQ, cal)
         + 0.5 * params.w2 * inner_mu(data.Q, data.Q, cal))
    for j, (alpha, a) in enumerate(((cal.alpha0, cal.a0), (cal.alpha1, cal.a1))):
        sgn = 1.0 if j == 0 else -1.0
        constraint = sgn * dQ.atom(j) - a * data.Q.atom(j)
        h += alpha * alpha * constraint * d2Q.atom(j)
        h += 0.5 * a * data.Q.atom(j) ** 2
    return float(h)


def hamiltonian_modes(coeffs: ModeCoefficients) -> float:
    """Hamiltonian on the Robin domain in spectral form: sum of oscillator energies."""
    om = coeffs.frequencies
    return float(0.5 * np.sum(np.abs(coeffs.p) ** 2
                              + om * om * np.abs(coeffs.q) ** 2))


@dataclass
class FDResult:
    """Finite-difference state at t_end plus the discrete energy record."""

    data: CauchyData
    energy_initial: float
    energy_final: float
    max_drift: float


def _trapz(y: np.ndarray, h: float) -> float:
    return float(h * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def fd_energy(u: np.ndarray, v: np.ndarray, params: ModelParams,
              h: float) -> float:
    """Discrete energy of the Newtonian system (trapezoid bulk, lumped ends)."""
    kinetic = (0.5 * _trapz(v * v, h)
               + 0.5 * params.mu0 * v[0] ** 2 + 0.5 * params.mu1 * v[-1] ** 2)
    du = np.diff(u) / h
    potential = (0.5 * np.sum(du * du) * h
                 + 0.5 * params.w2 * _trapz(u * u, h)
                 + 0.5 * params.mu0 * params.w02 * u[0] ** 2
                 + 0.5 * params.mu1 * params.w12 * u[-1] ** 2)
    return float(kinetic + potential)


def _fd_accel(u: np.ndarray, params: ModelParams, h: float) -> np.ndarray:
    a = np.empty_like(u)
    a[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h) - params.w2 * u[1:-1]
    du0 = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du1 = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    a[0] = du0 / params.mu0 - params.w02 * u[0]
    a[-1] = -du1 / params.mu1 - params.w12 * u[-1]
    return a


def fd_evolve(data: CauchyData, params: ModelParams, dt: float,
              t_end: float) -> FDResult:
    """Leapfrog integration of the original Newtonian system.

    The grid endpoint samples double as the boundary-particle positions
    (continuity of the string profile); particle accelerations use
    one-sided second-order derivatives for the wall force.
    """
    h = 1.0 / data.Q.n_grid
    if dt > 0.9 * h:
        raise CFLViolation(f"dt={dt} exceeds 0.9*dx={0.9 * h}")
    u = data.Q.values.copy()
    v = data.P.values.copy()
    sentinel = _BLOWUP_FACTOR * max(1.0, float(np.max(np.abs(u))))
    n_steps = int(round(t_end / dt))
    e0 = fd_energy(u, v, params, h)
    max_drift = 0.0
    a = _fd_accel(u, params, h)
    for step in range(n_steps):
        v_half = v + 0.5 * dt * a
        u = u + dt * v_half
        a = _fd_accel(u, params, h)
        v = v_half + 0.5 * dt * a
        if step % 1000 == 999:
            if np.max(np.abs(u)) > sentinel:
                raise BlowUp(f"solution exceeded {sentinel} at step {step}")
            max_drift = max(max_drift,
                            abs(fd_energy(u, v, params, h) - e0))
    e1 = fd_energy(u, v, params, h)
    max_drift = max(max_drift, abs(e1 - e0))
    out = CauchyData(Q=MuFunction(u, float(u[0]), float(u[-1])),
                     P=MuFunction(v, float(v[0]), float(v[-1])),
                     time=data.time + n_steps * dt)
    return FDResult(data=out, energy_initial=e0, energy_final=e1,
                    max_drift=max_drift)
