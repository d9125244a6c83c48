"""Functions on [0,1] under the atomic measure mu, and their calculus.

A :class:`MuFunction` stores interior samples on a uniform grid (the grid
endpoint samples are the one-sided traces F(0+), F(1-)) plus two
independent atom values F(0), F(1).  This mirrors the decomposition
R + L2(0,1) + R exactly, so the trace/atom distinction cannot be conflated.
A :class:`Basis` holds many such functions as one array.

The calculus layer provides the mu-inner products, Radon-Nikodym
derivatives, the modified Leibniz rule probe, the generalized Laplacian
and the Robin-domain residual.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatch
from .model import CalibratedMeasure, ModelParams


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid resolution; integrals use composite Simpson weights."""

    n_grid: int = 2048

    def __post_init__(self):
        if self.n_grid < 16 or self.n_grid % 2:
            raise ValueError("n_grid must be even and >= 16")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_grid + 1)

    @property
    def h(self) -> float:
        return 1.0 / self.n_grid


@dataclass(frozen=True)
class MuFunction:
    """Samples on [0,1] plus independent boundary-atom values."""

    values: np.ndarray
    v0: float
    v1: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n = vals.size - 1
        if n < 16 or n % 2:
            raise ValueError("grid must have an even number >= 16 of intervals")

    @property
    def n_grid(self) -> int:
        return self.values.size - 1

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    @property
    def trace0(self) -> float:
        return float(self.values[0])

    @property
    def trace1(self) -> float:
        return float(self.values[-1])

    @classmethod
    def from_callable(cls, f, grid: GridSpec, v0: float | None = None,
                      v1: float | None = None) -> "MuFunction":
        """Sample ``f`` on the grid; atoms default to the traces."""
        vals = np.asarray(f(grid.x), dtype=float)
        if vals.shape != (grid.n_grid + 1,):
            vals = np.asarray([f(xi) for xi in grid.x], dtype=float)
        return cls(vals, float(vals[0]) if v0 is None else float(v0),
                   float(vals[-1]) if v1 is None else float(v1))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "MuFunction":
        return cls(np.zeros(grid.n_grid + 1), 0.0, 0.0)

    def atom(self, j: int) -> float:
        return (self.v0, self.v1)[j]

    def trace(self, j: int) -> float:
        return (self.trace0, self.trace1)[j]

    # pointwise algebra (atoms combine with atoms, samples with samples)
    def __add__(self, other: "MuFunction") -> "MuFunction":
        _check_same_grid(self, other)
        return MuFunction(self.values + other.values, self.v0 + other.v0,
                          self.v1 + other.v1)

    def __sub__(self, other: "MuFunction") -> "MuFunction":
        _check_same_grid(self, other)
        return MuFunction(self.values - other.values, self.v0 - other.v0,
                          self.v1 - other.v1)

    def __mul__(self, c):
        if isinstance(c, MuFunction):
            _check_same_grid(self, c)
            return MuFunction(self.values * c.values, self.v0 * c.v0,
                              self.v1 * c.v1)
        return MuFunction(self.values * c, self.v0 * c, self.v1 * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class Basis:
    """Sampled basis functions as one read-only array.

    ``values`` has one row per function on the grid; ``v0``/``v1`` hold the
    atom values.  Indexing gives a :class:`MuFunction` view of one row and
    slicing gives a ``Basis``, so a basis reads like a list of functions.
    """

    values: np.ndarray
    v0: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        for name in ("values", "v0", "v1"):
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Basis(self.values[i], self.v0[i], self.v1[i])
        return MuFunction(self.values[i], float(self.v0[i]), float(self.v1[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _check_same_grid(u: MuFunction, v: MuFunction):
    if u.values.size != v.values.size:
        raise GridMismatch(f"{u.n_grid} vs {v.n_grid} intervals")


@lru_cache(maxsize=8)
def simpson_weights(n_grid: int) -> np.ndarray:
    """Composite Simpson weights h/3 * (1, 4, 2, 4, ..., 2, 4, 1) on [0,1]
    (read-only, shared by every caller on this grid)."""
    h = 1.0 / n_grid
    w = np.full(n_grid + 1, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    w.flags.writeable = False
    return w


def _integral(u: MuFunction, v: MuFunction) -> float:
    """int_0^1 uv over the grid samples."""
    return float((u.values * v.values) @ simpson_weights(u.n_grid))


def inner_mu(u: MuFunction, v: MuFunction, cal: CalibratedMeasure) -> float:
    """<u,v>_mu = alpha0 u(0)v(0) + alpha1 u(1)v(1) + int_0^1 uv.

    Atom terms use the atom values; the integral uses the grid samples.
    """
    _check_same_grid(u, v)
    return cal.alpha0 * u.v0 * v.v0 + cal.alpha1 * u.v1 * v.v1 + _integral(u, v)


def inner_modified(u: MuFunction, v: MuFunction, params: ModelParams) -> float:
    """<<u,v>> = mu0 g0(u)g0(v) + mu1 g1(u)g1(v) + int_0^1 uv (traces, not atoms)."""
    _check_same_grid(u, v)
    return (params.mu0 * u.trace0 * v.trace0
            + params.mu1 * u.trace1 * v.trace1 + _integral(u, v))


def norm_mu(u: MuFunction, cal: CalibratedMeasure) -> float:
    return float(np.sqrt(max(inner_mu(u, u, cal), 0.0)))


def rn_derivative(F: MuFunction, cal: CalibratedMeasure) -> MuFunction:
    """Radon-Nikodym derivative dF/dmu.

    Interior: second-order finite differences of the samples (one-sided at
    the grid ends, yielding the traces of the derivative).  Atoms:
    dF/dmu(j) = ((-1)^j / alpha_j) * (trace_j(F) - F(j)), which is exact.
    """
    d = np.gradient(F.values, 1.0 / F.n_grid, edge_order=2)
    a0 = (F.trace0 - F.v0) / cal.alpha0
    a1 = -(F.trace1 - F.v1) / cal.alpha1
    return MuFunction(d, a0, a1)


def leibniz_residual(F: MuFunction, G: MuFunction,
                     cal: CalibratedMeasure) -> float:
    """Max deviation from the modified Leibniz rule.

    d(FG)/dmu = (dF/dmu)G + F(dG/dmu) + K (dF/dmu)(dG/dmu), with
    K(j) = (-1)^j alpha_j at the atoms and K = 0 in the interior.
    """
    _check_same_grid(F, G)
    dF = rn_derivative(F, cal)
    dG = rn_derivative(G, cal)
    dFG = rn_derivative(F * G, cal)
    res_interior = np.max(np.abs(
        dFG.values - (dF.values * G.values + F.values * dG.values)))
    k0, k1 = cal.alpha0, -cal.alpha1
    res0 = abs(dFG.v0 - (dF.v0 * G.v0 + F.v0 * dG.v0 + k0 * dF.v0 * dG.v0))
    res1 = abs(dFG.v1 - (dF.v1 * G.v1 + F.v1 * dG.v1 + k1 * dF.v1 * dG.v1))
    return float(max(res_interior, res0, res1))


def laplacian_mu(F: MuFunction, cal: CalibratedMeasure) -> MuFunction:
    """Generalized Laplacian (1+C) d^2F/dmu^2; C = A(j)alpha_j at atoms, 0 inside."""
    d2 = rn_derivative(rn_derivative(F, cal), cal)
    return MuFunction(d2.values, (1.0 + cal.c0) * d2.v0,
                      (1.0 + cal.c1) * d2.v1)


def robin_residual(F: MuFunction, cal: CalibratedMeasure) -> tuple[float, float]:
    """Residuals ((-1)^j dF/dmu(j) - A(j) F(j)); (0,0) iff F is in the Robin domain.

    If 1 + alpha_j A(j) = 0 the trace relation degenerates and forces
    trace_j(F) = 0; such inputs are accepted and simply produce the
    corresponding residual.
    """
    d = rn_derivative(F, cal)
    r0 = d.v0 - cal.a0 * F.v0
    r1 = -d.v1 - cal.a1 * F.v1
    return (float(r0), float(r1))


def robin_atoms(trace0: float, trace1: float,
                cal: CalibratedMeasure) -> tuple[float, float]:
    """Atom values putting a function with given traces into the Robin domain."""
    return (trace0 / (1.0 + cal.alpha0 * cal.a0),
            trace1 / (1.0 + cal.alpha1 * cal.a1))


@lru_cache(maxsize=8)
def _x_column(size: int) -> tuple[str, ...]:
    """Grid abscissae formatted for :func:`save_csv`, shared by every file."""
    return tuple(f"{x:.17g}" for x in np.linspace(0.0, 1.0, size).tolist())


def save_csv(F: MuFunction, path, header: Sequence[str] = ()) -> None:
    """CSV with atom header records and x,value rows at 17 significant digits.

    ``header`` lines (e.g. a ``# config=`` stamp) are written first.
    """
    lines = [*header, f"# atom0={F.v0:.17g}", f"# atom1={F.v1:.17g}", "x,value"]
    lines += [f"{x},{v:.17g}"
              for x, v in zip(_x_column(F.values.size), F.values.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> MuFunction:
    """Read a :func:`save_csv` file; header lines other than the atoms are skipped."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines.index("x,value")
    meta = dict(ln[2:].partition("=")[::2] for ln in lines[:head] if ln.startswith("# "))
    vals = np.asarray([float(ln.split(",")[1]) for ln in lines[head + 1:] if ln],
                      dtype=float)
    return MuFunction(vals, float(meta["atom0"]), float(meta["atom1"]))
