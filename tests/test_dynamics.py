import math

import numpy as np
import pytest

from stringmass.dynamics import (
    CauchyData,
    ModeCoefficients,
    evolve_modes,
    fd_energy,
    fd_evolve,
    hamiltonian,
    hamiltonian_modes,
    project,
)
from stringmass.errors import CFLViolation, FrequencyDomainError, GridMismatch
from stringmass.model import ModelParams, calibrate
from stringmass.mufunc import GridSpec, MuFunction, inner_mu, norm_mu, robin_atoms
from stringmass.spectrum import build_spectrum

from conftest import random_domain_data


def _zero_data(grid: GridSpec) -> CauchyData:
    return CauchyData(Q=MuFunction.zeros(grid), P=MuFunction.zeros(grid))


def test_cauchy_data_grid_mismatch():
    with pytest.raises(GridMismatch):
        CauchyData(Q=MuFunction.zeros(GridSpec(64)),
                   P=MuFunction.zeros(GridSpec(128)))


def test_project_unit_vector(generic_spectrum, grid4096):
    basis = generic_spectrum.basis(grid4096)
    data = CauchyData(Q=basis[3], P=MuFunction.zeros(grid4096))
    coeffs = project(data, generic_spectrum, n_modes=16)
    e3 = np.zeros(16)
    e3[3] = 1.0
    assert np.max(np.abs(coeffs.q - e3)) <= 1e-9
    assert np.max(np.abs(coeffs.p)) <= 1e-12
    assert coeffs.truncation_residual <= 1e-8


@pytest.mark.parametrize("n_grid, n_modes", [(512, None), (4096, 40)])
def test_project_matches_inner_mu_loop(generic_spectrum, generic_cal, n_grid, n_modes):
    grid = GridSpec(n_grid)
    rng = np.random.default_rng(11)
    _, data = random_domain_data(generic_spectrum, grid, rng, n_active=10, decay=1.0)
    noise = MuFunction(rng.standard_normal(n_grid + 1), rng.standard_normal(),
                       rng.standard_normal())
    data = CauchyData(Q=data.Q + 0.1 * noise, P=data.P)
    coeffs = project(data, generic_spectrum, n_modes=n_modes)
    basis = list(generic_spectrum.basis(grid))[:n_modes]
    for got, F in ((coeffs.q, data.Q), (coeffs.p, data.P)):
        want = np.asarray([inner_mu(y, F, generic_cal) for y in basis])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_project_zero(generic_spectrum, grid512):
    coeffs = project(_zero_data(grid512), generic_spectrum, n_modes=8)
    assert np.all(coeffs.q == 0.0) and np.all(coeffs.p == 0.0)
    assert coeffs.truncation_residual == 0.0


def test_project_residual_decays(generic_spectrum, generic_cal, grid4096):
    bump = MuFunction.from_callable(
        lambda x: np.exp(-20.0 * (x - 0.4) ** 2), grid4096)
    bump = MuFunction(bump.values,
                      *robin_atoms(bump.trace0, bump.trace1, generic_cal))
    data = CauchyData(Q=bump, P=MuFunction.zeros(grid4096))
    r16 = project(data, generic_spectrum, n_modes=16).truncation_residual
    r64 = project(data, generic_spectrum, n_modes=64).truncation_residual
    assert r64 < r16


def test_parseval_inequality(generic_spectrum, generic_cal, grid4096):
    rng = np.random.default_rng(5)
    f = MuFunction(rng.standard_normal(grid4096.n_grid + 1),
                   rng.standard_normal(), rng.standard_normal())
    data = CauchyData(Q=f, P=MuFunction.zeros(grid4096))
    coeffs = project(data, generic_spectrum, n_modes=64)
    assert np.sum(coeffs.q ** 2) <= inner_mu(f, f, generic_cal) + 1e-8


def test_single_mode_cosine(generic_spectrum, grid4096):
    basis = generic_spectrum.basis(grid4096)
    mode = generic_spectrum.modes[2]
    om = math.sqrt(generic_spectrum.params.w2 - mode.lam)
    q = np.zeros(len(generic_spectrum.modes))
    q[2] = 1.0
    coeffs = ModeCoefficients(q=q, p=np.zeros_like(q),
                              spectrum=generic_spectrum,
                              n_grid=grid4096.n_grid)
    t = 0.7
    out = evolve_modes(coeffs, t)
    expected_q = math.cos(om * t) * basis[2].values
    expected_p = -om * math.sin(om * t) * basis[2].values
    assert np.max(np.abs(out.Q.values - expected_q)) <= 1e-12
    assert np.max(np.abs(out.P.values - expected_p)) <= 1e-12
    assert out.Q.v0 == pytest.approx(math.cos(om * t) * basis[2].v0, abs=1e-12)


def test_evolution_identity_at_zero(generic_spectrum, grid4096):
    rng = np.random.default_rng(17)
    coeffs, data0 = random_domain_data(generic_spectrum, grid4096, rng)
    out = evolve_modes(coeffs, 0.0)
    assert np.max(np.abs(out.Q.values - data0.Q.values)) <= 1e-13
    assert np.max(np.abs(out.P.values - data0.P.values)) <= 1e-13


def test_time_reversal(generic_spectrum, grid4096):
    rng = np.random.default_rng(19)
    coeffs, data0 = random_domain_data(generic_spectrum, grid4096, rng)
    t = 2.3
    forward = evolve_modes(coeffs, t)
    # project only onto the populated low modes: Simpson error on highly
    # oscillatory basis functions would otherwise dominate the round trip
    coeffs_t = project(forward, generic_spectrum, n_modes=8)
    back = evolve_modes(coeffs_t, -t)
    assert np.max(np.abs(back.Q.values - data0.Q.values)) <= 1e-11
    assert np.max(np.abs(back.P.values - data0.P.values)) <= 1e-11


def test_frequency_domain_error():
    p = ModelParams(1.0, 1.0, 4.0, 1.0, 1.0)  # has positive-lambda modes
    spec = build_spectrum(p, n_neg=2)
    assert any(m.lam > 0 for m in spec.modes)
    grid = GridSpec(64)
    n = len(spec.modes)
    coeffs = ModeCoefficients(q=np.ones(n), p=np.zeros(n), spectrum=spec,
                              n_grid=grid.n_grid)
    # all lambda < w2 here, so evolution works; force the error by lifting w2
    out = evolve_modes(coeffs, 0.1)
    assert out.time == 0.1
    bad = ModelParams(1.0, 1.0, 0.5, 1.0, 1.0)
    bad_spec = build_spectrum(bad, n_neg=2)
    # graft modes with lambda >= w2 is impossible by construction; instead
    # check the guard directly on a spectrum whose lambdas we override
    bad_spec.modes = spec.modes  # lambdas up to ~3.9 vs w2=0.5
    coeffs_bad = ModeCoefficients(q=np.ones(n), p=np.zeros(n),
                                  spectrum=bad_spec, n_grid=grid.n_grid)
    with pytest.raises(FrequencyDomainError):
        evolve_modes(coeffs_bad, 0.1)


def test_hamiltonian_zero(generic_params, generic_cal, grid512):
    assert hamiltonian(_zero_data(grid512), generic_params, generic_cal) == 0.0


def test_hamiltonian_single_mode_resonance(resonant_params, grid4096):
    # with A=0 the energy of (Q=Y_n, P=0) is exactly half the squared frequency
    cal = calibrate(resonant_params)
    spec = build_spectrum(resonant_params, cal, n_neg=4)
    for mode, y in zip(spec.modes[:3], spec.basis(grid4096)[:3]):
        data = CauchyData(Q=y, P=MuFunction.zeros(grid4096))
        h = hamiltonian(data, resonant_params, cal)
        expected = 0.5 * (resonant_params.w2 - mode.lam)
        assert h == pytest.approx(expected, rel=1e-6)


def test_hamiltonian_modes_single(generic_spectrum, grid4096):
    n = len(generic_spectrum.modes)
    q = np.zeros(n)
    q[1] = 1.0
    coeffs = ModeCoefficients(q=q, p=np.zeros(n), spectrum=generic_spectrum,
                              n_grid=grid4096.n_grid)
    om2 = generic_spectrum.params.w2 - generic_spectrum.modes[1].lam
    assert hamiltonian_modes(coeffs) == pytest.approx(0.5 * om2, rel=1e-14)


def test_energy_conserved_along_mode_evolution(generic_spectrum, generic_cal,
                                               generic_params, grid4096):
    rng = np.random.default_rng(31)
    coeffs, data0 = random_domain_data(generic_spectrum, grid4096, rng)
    h0 = hamiltonian_modes(coeffs)
    grid_h0 = hamiltonian(data0, generic_params, generic_cal)
    assert grid_h0 == pytest.approx(h0, rel=1e-6)
    for t in np.linspace(0.0, 10.0, 11):
        data_t = evolve_modes(coeffs, float(t))
        c_t = project(data_t, generic_spectrum, n_modes=coeffs.q.size)
        assert hamiltonian_modes(c_t) == pytest.approx(h0, rel=1e-8)
        assert hamiltonian(data_t, generic_params, generic_cal) \
            == pytest.approx(h0, rel=1e-6)


def test_fd_flat_profile_oscillation():
    # springs tuned to the string: a flat profile oscillates at sqrt(w2)
    p = ModelParams(1.3, 0.7, 2.0, 2.0, 2.0)
    grid = GridSpec(256)
    c = 0.8
    data = CauchyData(Q=MuFunction.zeros(grid) + c * MuFunction.from_callable(
        np.ones_like, grid), P=MuFunction.zeros(grid))
    dt = 1e-3
    t_end = 1.0
    res = fd_evolve(data, p, dt, t_end)
    expected = c * math.cos(math.sqrt(p.w2) * t_end)
    assert np.max(np.abs(res.data.Q.values - expected)) <= 1e-5


def test_fd_convergence_order(generic_params, generic_cal):
    spec = build_spectrum(generic_params, generic_cal, n_neg=4)
    mode = spec.negative_modes[0]
    om = math.sqrt(generic_params.w2 - mode.lam)
    t_end = 0.5

    def sup_error(n_grid, dt):
        grid = GridSpec(n_grid)
        y = spec.basis(grid)[spec.modes.index(mode)]
        data = CauchyData(Q=y, P=MuFunction.zeros(grid))
        res = fd_evolve(data, generic_params, dt, t_end)
        exact = math.cos(om * t_end) * y.values
        return float(np.max(np.abs(res.data.Q.values - exact)))

    e_coarse = sup_error(256, 1e-3)
    e_fine = sup_error(512, 5e-4)
    order = math.log2(e_coarse / e_fine)
    assert order >= 1.8


def test_fd_energy_drift(generic_params, generic_cal):
    grid = GridSpec(1024)
    spec = build_spectrum(generic_params, generic_cal, n_neg=8)
    rng = np.random.default_rng(41)
    _, data = random_domain_data(spec, grid, rng)
    res = fd_evolve(data, generic_params, 1e-4, 10.0)
    # drift is dominated by the O(h^2) phase fluctuation of the discrete
    # energy functional, not by the symplectic integrator itself
    assert res.max_drift <= 1e-5 * abs(res.energy_initial)


def test_fd_matches_mode_evolution(generic_params, generic_cal):
    grid = GridSpec(1024)
    spec = build_spectrum(generic_params, generic_cal, n_neg=64)
    rng = np.random.default_rng(43)
    coeffs, data0 = random_domain_data(spec, grid, rng)
    t = 1.0
    exact = evolve_modes(coeffs, t)
    res = fd_evolve(data0, generic_params, 2.5e-4, t)
    gap = np.max(np.abs(res.data.Q.values - exact.Q.values))
    assert gap <= 1e-4


def test_cfl_violation(generic_params, grid512):
    with pytest.raises(CFLViolation):
        fd_evolve(_zero_data(grid512), generic_params, 1.0, 1.0)


def test_fd_energy_flat_profile():
    p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
    u = np.full(257, 2.0)
    v = np.zeros(257)
    # potential only: w2/2 * int u^2 + boundary springs
    expected = 0.5 * 4.0 * (1.0 + 1.0 + 1.0)
    assert fd_energy(u, v, p, 1.0 / 256) == pytest.approx(expected, rel=1e-12)
