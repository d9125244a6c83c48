import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from stringmass.errors import GridMismatch
from stringmass.model import ModelParams, calibrate
from stringmass.mufunc import (
    GridSpec,
    MuFunction,
    inner_modified,
    inner_mu,
    laplacian_mu,
    leibniz_residual,
    load_csv,
    norm_mu,
    rn_derivative,
    robin_atoms,
    robin_residual,
    save_csv,
)

from conftest import random_domain_data


@pytest.fixture(scope="module")
def resonant_cal(resonant_params):
    return calibrate(resonant_params)


def indicator_at_zero(grid: GridSpec) -> MuFunction:
    """Atom value 1 at x=0, zero everywhere else (traces included)."""
    return MuFunction(np.zeros(grid.n_grid + 1), 1.0, 0.0)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(15)
    with pytest.raises(ValueError):
        GridSpec(17)
    g = GridSpec(64)
    assert g.h == pytest.approx(1.0 / 64)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0


def test_mufunction_traces_vs_atoms(grid512):
    f = MuFunction.from_callable(np.cos, grid512, v0=7.0, v1=-3.0)
    assert f.trace0 == 1.0
    assert f.trace1 == pytest.approx(np.cos(1.0))
    assert f.atom(0) == 7.0 and f.atom(1) == -3.0
    assert f.trace(0) == f.trace0 and f.trace(1) == f.trace1


def test_mufunction_algebra(grid512):
    f = MuFunction.from_callable(np.sin, grid512, v0=1.0, v1=2.0)
    g = MuFunction.from_callable(np.cos, grid512, v0=3.0, v1=5.0)
    s = f + g
    assert s.v0 == 4.0 and s.v1 == 7.0
    assert np.allclose(s.values, np.sin(grid512.x) + np.cos(grid512.x))
    d = f - g
    assert d.v0 == -2.0
    p = f * g
    assert p.v0 == 3.0 and p.v1 == 10.0
    assert (2.0 * f).v1 == 4.0
    with pytest.raises(GridMismatch):
        f + MuFunction.from_callable(np.sin, GridSpec(64))


def test_inner_mu_constant_resonance(resonant_cal, grid512):
    one = MuFunction.from_callable(np.ones_like, grid512)
    assert inner_mu(one, one, resonant_cal) == pytest.approx(3.0, abs=1e-13)


def test_inner_mu_atom_indicator(grid512):
    # only the atom at 0 contributes: alpha0 * 1 * 1
    cal = calibrate(ModelParams(2.0, 3.0, 1.0, 1.0, 1.0))
    assert cal.alpha0 == 2.0
    f = indicator_at_zero(grid512)
    assert inner_mu(f, f, cal) == pytest.approx(2.0, abs=1e-15)


def test_inner_mu_sine(generic_cal, grid4096):
    f = MuFunction.from_callable(lambda x: np.sin(np.pi * x), grid4096,
                                 v0=0.0, v1=0.0)
    assert inner_mu(f, f, generic_cal) == pytest.approx(0.5, abs=1e-10)
    assert norm_mu(f, generic_cal) == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_inner_modified_constant(resonant_params, grid512):
    one = MuFunction.from_callable(np.ones_like, grid512)
    assert inner_modified(one, one, resonant_params) == pytest.approx(
        3.0, abs=1e-13)


def test_inner_modified_uses_traces_not_atoms(generic_params, grid512):
    # atom values must not enter the modified product
    f = MuFunction.from_callable(np.ones_like, grid512, v0=100.0, v1=-50.0)
    assert inner_modified(f, f, generic_params) == pytest.approx(
        generic_params.mu0 + generic_params.mu1 + 1.0, abs=1e-13)


def test_inner_products_agree_on_robin_domain(generic_spectrum, generic_cal,
                                              generic_params, grid4096):
    rng = np.random.default_rng(7)
    _, data_u = random_domain_data(generic_spectrum, grid4096, rng)
    _, data_w = random_domain_data(generic_spectrum, grid4096, rng)
    u, w = data_u.Q, data_w.Q
    a = inner_mu(u, w, generic_cal)
    b = inner_modified(u, w, generic_params)
    assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_rn_derivative_constant(generic_cal, grid512):
    f = MuFunction.from_callable(np.ones_like, grid512) * 4.2
    d = rn_derivative(f, generic_cal)
    assert np.max(np.abs(d.values)) <= 1e-11
    assert d.v0 == 0.0 and d.v1 == 0.0


def test_rn_derivative_atom_indicator(resonant_cal, grid512):
    f = indicator_at_zero(grid512)
    d = rn_derivative(f, resonant_cal)
    assert d.v0 == -1.0
    assert d.v1 == 0.0
    assert np.max(np.abs(d.values)) == 0.0


def test_rn_derivative_quadratic(generic_cal, grid4096):
    f = MuFunction.from_callable(np.square, grid4096)
    d = rn_derivative(f, generic_cal)
    assert np.max(np.abs(d.values - 2.0 * grid4096.x)) <= 1e-6
    assert d.v0 == 0.0 and d.v1 == 0.0


def test_leibniz_constant(generic_cal, grid512):
    one = MuFunction.from_callable(np.ones_like, grid512)
    assert leibniz_residual(one, one, generic_cal) == 0.0


def test_leibniz_atom_indicator_exact(resonant_cal, grid512):
    # both sides evaluate to -1/alpha0 at the x=0 atom in closed form
    f = indicator_at_zero(grid512)
    assert leibniz_residual(f, f, resonant_cal) == 0.0


def test_leibniz_second_order_convergence(generic_cal):
    def make(grid):
        F = MuFunction.from_callable(lambda x: np.sin(2.0 * x + 0.3), grid,
                                     v0=0.7, v1=-0.2)
        G = MuFunction.from_callable(lambda x: np.exp(-x) + x ** 2, grid,
                                     v0=1.5, v1=0.1)
        return leibniz_residual(F, G, generic_cal)

    r_coarse = make(GridSpec(256))
    r_fine = make(GridSpec(1024))
    assert r_fine <= r_coarse / 8.0  # 2nd order would give 1/16


def test_laplacian_sine(generic_cal, grid4096):
    f = MuFunction.from_callable(lambda x: np.sin(np.pi * x), grid4096)
    f = MuFunction(f.values, *robin_atoms(f.trace0, f.trace1, generic_cal))
    lap = laplacian_mu(f, generic_cal)
    interior = slice(8, -8)
    assert np.max(np.abs(
        lap.values[interior] + np.pi ** 2 * np.sin(np.pi * grid4096.x[interior])
    )) <= 1e-4


def test_laplacian_constant(generic_cal, grid512):
    f = MuFunction.from_callable(np.ones_like, grid512)
    f = MuFunction(f.values, *robin_atoms(1.0, 1.0, generic_cal))
    lap = laplacian_mu(f, generic_cal)
    assert np.max(np.abs(lap.values)) <= 1e-9
    # d/dmu atoms are A(j)*f(j) up to sign; second derivative atom need not
    # vanish unless A=0, so only the interior is asserted here


def test_laplacian_eigenfunction(generic_spectrum, generic_cal, grid4096):
    mode = generic_spectrum.negative_modes[0]
    y = generic_spectrum.basis(grid4096)[generic_spectrum.modes.index(mode)]
    lap = laplacian_mu(y, generic_cal)
    interior = slice(8, -8)
    assert np.max(np.abs(
        lap.values[interior] - mode.lam * y.values[interior])) <= 1e-3
    assert lap.v0 == pytest.approx(mode.lam * y.v0, abs=1e-6)
    assert lap.v1 == pytest.approx(mode.lam * y.v1, abs=1e-6)


def test_robin_residual_from_trace_relation(generic_cal, grid512):
    f = MuFunction.from_callable(lambda x: np.cos(1.3 * x) + 0.2 * x, grid512)
    f = MuFunction(f.values, *robin_atoms(f.trace0, f.trace1, generic_cal))
    r0, r1 = robin_residual(f, generic_cal)
    assert abs(r0) <= 1e-12 and abs(r1) <= 1e-12


def test_robin_residual_resonance_trivial(resonant_cal, grid512):
    # A=0 and atoms equal to traces puts any function in the domain
    f = MuFunction.from_callable(lambda x: np.sin(3.0 * x) + 1.0, grid512)
    r0, r1 = robin_residual(f, resonant_cal)
    assert r0 == 0.0 and r1 == 0.0


def test_robin_residual_atom_indicator(resonant_cal, grid512):
    r0, r1 = robin_residual(indicator_at_zero(grid512), resonant_cal)
    assert r0 == pytest.approx(-1.0 / resonant_cal.alpha0, abs=1e-15)
    assert r1 == 0.0


def test_csv_round_trip(tmp_path, grid512):
    rng = np.random.default_rng(3)
    f = MuFunction(rng.standard_normal(grid512.n_grid + 1),
                   rng.standard_normal(), rng.standard_normal())
    path = tmp_path / "f.csv"
    save_csv(f, path)
    g = load_csv(path)
    assert g.v0 == f.v0 and g.v1 == f.v1
    assert np.array_equal(g.values, f.values)


def test_csv_header_lines(tmp_path, grid512):
    f = MuFunction(np.linspace(-1.0, 2.0, grid512.n_grid + 1) ** 3, 0.1, -0.2)
    plain, stamped = tmp_path / "plain.csv", tmp_path / "stamped.csv"
    save_csv(f, plain)
    save_csv(f, stamped, header=["# config=abc"])
    assert stamped.read_text() == "# config=abc\n" + plain.read_text()
    lines = plain.read_text().split("\n")
    assert lines[:3] == ["# atom0=0.10000000000000001", "# atom1=-0.20000000000000001",
                         "x,value"]
    assert lines[3:-1] == [f"{x:.17g},{v:.17g}" for x, v in zip(f.x, f.values)]
    g = load_csv(stamped)
    assert (g.v0, g.v1) == (f.v0, f.v1) and np.array_equal(g.values, f.values)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), seed=st.integers(0, 99))
def test_inner_mu_bilinear_symmetric(a, b, seed, generic_cal):
    grid = GridSpec(64)
    rng = np.random.default_rng(seed)
    u = MuFunction(rng.standard_normal(65), rng.standard_normal(),
                   rng.standard_normal())
    v = MuFunction(rng.standard_normal(65), rng.standard_normal(),
                   rng.standard_normal())
    w = MuFunction(rng.standard_normal(65), rng.standard_normal(),
                   rng.standard_normal())
    lhs = inner_mu(a * u + b * v, w, generic_cal)
    rhs = a * inner_mu(u, w, generic_cal) + b * inner_mu(v, w, generic_cal)
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1.0 + abs(lhs)))
    assert inner_mu(u, v, generic_cal) == pytest.approx(
        inner_mu(v, u, generic_cal), abs=1e-12)


def test_inner_mu_three_block_form(generic_cal, grid512):
    # atoms + Simpson integral, assembled independently
    rng = np.random.default_rng(11)
    u = MuFunction(rng.standard_normal(grid512.n_grid + 1),
                   rng.standard_normal(), rng.standard_normal())
    v = MuFunction(rng.standard_normal(grid512.n_grid + 1),
                   rng.standard_normal(), rng.standard_normal())
    expected = (generic_cal.alpha0 * u.v0 * v.v0
                + generic_cal.alpha1 * u.v1 * v.v1
                + simpson(u.values * v.values, x=grid512.x))
    assert inner_mu(u, v, generic_cal) == pytest.approx(expected, abs=1e-12)


def _spectral_laplacian(coeffs, grid):
    """Apply the generalized Laplacian mode-by-mode (exact on the basis)."""
    spec = coeffs.spectrum
    out = MuFunction.zeros(grid)
    for lam, q, y in zip(spec.lambdas, coeffs.q, spec.basis(grid)):
        out = out + (lam * q) * y
    return out


def test_laplacian_symmetry_on_domain(generic_spectrum, generic_cal, grid4096):
    rng = np.random.default_rng(23)
    cu, du = random_domain_data(generic_spectrum, grid4096, rng)
    cw, dw = random_domain_data(generic_spectrum, grid4096, rng)
    lap_u = _spectral_laplacian(cu, grid4096)
    lap_w = _spectral_laplacian(cw, grid4096)
    a = inner_mu(lap_u, dw.Q, generic_cal)
    b = inner_mu(du.Q, lap_w, generic_cal)
    assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


def test_integration_by_parts_identity(generic_spectrum, generic_cal,
                                       grid4096):
    # <Lap u, w>_mu = -<du/dmu, dw/dmu>_mu - sum_j A(j) u(j) w(j) on the
    # Robin domain (the boundary sum enters with a minus sign)
    rng = np.random.default_rng(29)
    cu, du = random_domain_data(generic_spectrum, grid4096, rng)
    _, dw = random_domain_data(generic_spectrum, grid4096, rng)
    u, w = du.Q, dw.Q
    lap_u = _spectral_laplacian(cu, grid4096)
    lhs = inner_mu(lap_u, w, generic_cal)
    grad = inner_mu(rn_derivative(u, generic_cal),
                    rn_derivative(w, generic_cal), generic_cal)
    boundary = (generic_cal.a0 * u.v0 * w.v0 + generic_cal.a1 * u.v1 * w.v1)
    assert lhs == pytest.approx(-grad - boundary,
                                abs=1e-5 * (1.0 + abs(lhs)))
