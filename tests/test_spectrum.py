import dataclasses
import math
import warnings

import numpy as np
import pytest

from oracles import bisect, loglog_fit, matrix_frequencies, secular_scan
from stringmass.errors import RobinViolation
from stringmass.model import ModelParams, calibrate
from stringmass.mufunc import (
    Basis,
    GridSpec,
    MuFunction,
    inner_mu,
    robin_atoms,
    robin_residual,
)
from stringmass.spectrum import (
    _reduced_positive,
    _reduced_positive_deriv,
    _scan_roots,
    asymptote_error,
    basis_mode,
    bracket_counts,
    build_spectrum,
    detect_threshold,
    eigenfunction_closed_form,
    export_csv,
    find_negative_modes,
    find_positive_modes,
    gram_matrix,
    normalization_formula,
    secular_negative,
    secular_negative_deriv,
    secular_positive,
    zero_mode_defect,
)

# Parameters whose two exponential-family modes lie closer together than the
# positive-family scan step: ROADMAP item 2's first repro and three draws of
# the benchmark's parameter box.
NEAR_DEGENERATE = [
    (1.0, 1.0, 100.0, 0.0, 0.0),
    (6.61878, 4.72141, 86.3968, 0.799058, 0.243417),
    (1.27493, 1.18723, 71.7567, 0.511975, 0.0337111),
    (19.0603, 6.24517, 71.6818, 0.912459, 0.0156523),
]
# ROADMAP item 2's second repro: a hair off the zero-mode locus
REPRO_ZERO_LOCUS = (1.0, 1.0, 1.0, 1.5, 1.0 / 1.5 + 1e-9)


def test_secular_negative_at_pi_multiples(generic_params):
    p = generic_params
    for k in (1, 2, 5):
        w = k * math.pi
        expected = ((p.mu0 * (w * w - p.delta(0))
                     + p.mu1 * (w * w - p.delta(1))) * w * (-1.0) ** k)
        assert secular_negative(w, p) == pytest.approx(expected, rel=1e-13)


def test_secular_negative_deriv_matches_fd(generic_params):
    w = 2.7
    h = 1e-6
    fd = (secular_negative(w + h, generic_params)
          - secular_negative(w - h, generic_params)) / (2.0 * h)
    assert secular_negative_deriv(w, generic_params) == pytest.approx(
        fd, rel=1e-7)


def test_reduced_positive_and_deriv():
    # g = -secular_positive / (2 w cosh w) (which cancels badly as w -> 0),
    # and g' against the complex-step derivative Im g(w + ih)/h, on both
    # sides of the series cut (tanh(z)/z loses about eps/w^2 of the step)
    for params in ((1.5, 0.8, 2.0, 2.5, 1.2), NEAR_DEGENERATE[0], REPRO_ZERO_LOCUS):
        p = ModelParams(*params)
        w = np.array([1e-3, 0.0099, 0.0101, 0.3, 2.7, 9.5])
        assert _reduced_positive(w, p) == pytest.approx(
            -secular_positive(w, p) / (2.0 * w * np.cosh(w)), rel=1e-10)
        h = 1e-30
        step = _reduced_positive(w + 1j * h, p).imag / h
        assert _reduced_positive_deriv(w, p) == pytest.approx(step, rel=1e-8)


def _scan_loop(f, xs):
    """The cell-by-cell scan the vectorized one replaces, with bisection."""
    ys = [f(x) for x in xs]
    roots = []
    for i in range(len(xs) - 1):
        if ys[i] == 0.0:
            roots.append(xs[i])
        elif ys[i] * ys[i + 1] < 0.0:
            roots.append(bisect(f, xs[i], xs[i + 1], tol=1e-15))
    if ys[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def test_scan_roots_grid_zeros_and_adjacent_cells():
    # exact zeros at the first, an interior and the last grid point of the
    # first row, roots 0.3 and 0.34 in adjacent cells; the second row starts
    # and ends on a zero
    f = lambda x: x * (x - 0.5) * (x - 1.0) * (x - 0.3) * (x - 0.34)
    xs = np.stack([np.linspace(0.0, 1.0, 17), np.linspace(0.5, 1.0, 17)])
    rows, roots = _scan_roots(f, xs)
    assert rows.tolist() == [0, 0, 0, 0, 0, 1, 1]
    assert roots[[0, 3, 4, 5, 6]].tolist() == [0.0, 0.5, 1.0, 0.5, 1.0]
    assert roots[1:3] == pytest.approx([0.3, 0.34], abs=1e-14)
    for i, row in enumerate(xs):
        expected = _scan_loop(f, row.tolist())
        assert roots[rows == i] == pytest.approx(expected, abs=1e-14)
        # a row scanned alone gives the same roots as inside the 2-D grid
        assert _scan_roots(f, row)[1].tolist() == roots[rows == i].tolist()


def test_bracket_counts_match_per_bracket_scan(generic_params):
    f = lambda w: secular_negative(w, generic_params)
    counts = bracket_counts(generic_params, 0, 4)
    for k, got in counts.items():
        lo = max(k * math.pi, 1e-9) + 1e-9
        hi = (k + 1) * math.pi - 1e-9
        expected = _scan_loop(f, np.linspace(lo, hi, 257).tolist())
        assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("params", NEAR_DEGENERATE)
def test_near_degenerate_exponential_pair_found(params):
    p = ModelParams(*params)
    got = np.sort(p.w2 - build_spectrum(p, n_neg=8).lambdas)
    oracle = matrix_frequencies(p, 1600, k=8)
    assert np.sum(got < p.w2) == np.sum(oracle < p.w2) == 2
    assert got[:6] == pytest.approx(oracle[:6], rel=1e-4)


def _box_draws(n, seed):
    """Parameter draws from the benchmark's log-uniform box."""
    rng = np.random.default_rng(seed)
    log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return [(log_uniform(0.05, 20), log_uniform(0.05, 20), log_uniform(0.1, 100),
             log_uniform(0.01, 100), log_uniform(0.01, 100)) for _ in range(n)]


ZERO_LOCUS = (1.0, 1.0, 1.0, 0.5, 2.0)  # zero_mode_defect exactly 0
ORACLE_SWEEP = ([(1.5, 0.8, 2.0, 2.5, 1.2), REPRO_ZERO_LOCUS,
                 (1.0, 1.0, 1.0, 1.5, 1.0 / 1.5 - 1e-9), ZERO_LOCUS]
                + NEAR_DEGENERATE + _box_draws(30, 505))


@pytest.mark.parametrize("params", ORACLE_SWEEP)
def test_spectrum_matches_matrix_oracle(params):
    # mode counts and the lowest 6 Omega^2 = w2 - lambda against the pencil,
    # within its discretisation error: the largest change across n_grid
    # 400/800/1600, as the benchmark's spectra check takes it
    p = ModelParams(*params)
    spec = build_spectrum(p, n_neg=16)
    assert len(spec.negative_modes) == 16
    got = np.sort(p.w2 - spec.lambdas)
    ladder = [matrix_frequencies(p, n, k=8) for n in (400, 800, 1600)]
    fine = ladder[-1]
    tol = np.max(np.abs(np.diff(ladder, axis=0)), axis=0) + 1e-9 * np.maximum(1.0, fine)
    assert np.all(np.abs(got[:6] - fine[:6]) <= tol[:6])
    off = tol.max()
    assert np.sum(got < p.w2 - off) == np.sum(fine < p.w2 - off)


def test_zero_mode_locus_counted_once():
    # on the locus the zero mode stands for the root near omega = 0 that
    # each family's secular function also has; neither family reports it
    p = ModelParams(*ZERO_LOCUS)
    cal = calibrate(p)
    spec = build_spectrum(p, cal, n_neg=16)
    assert [m.kind for m in spec.modes if abs(m.lam) < 1e-3] == ["zero"]
    assert find_positive_modes(p) == ([], [])
    assert find_negative_modes(p, 1)[0] > 1.0
    G = gram_matrix(spec, GridSpec(4096), 8)
    assert np.max(np.abs(G - np.eye(8))) <= 1e-8


@pytest.mark.parametrize("offset", [1e-9, 1e-11])
def test_zero_locus_neighbours(offset):
    # a hair off the locus the zero mode becomes one family's mode near
    # omega = 0: oscillatory on the + side, exponential on the - side, both
    # at omega^2 = |defect/g2| (defect = 1.5 offset, g2 = 29/9 to first order)
    for side in (1.0, -1.0):
        p = ModelParams(1.0, 1.0, 1.0, 1.5, 1.0 / 1.5 + side * offset)
        spec = build_spectrum(p, n_neg=8)
        kinds = [m.kind for m in spec.modes]
        assert "zero" not in kinds and kinds.count("pos") == (side < 0)
        assert kinds[0] == ("neg" if side > 0 else "pos")
        assert spec.modes[0].omega ** 2 == pytest.approx(1.5 * offset * 9.0 / 29.0, rel=1e-3)


def test_build_spectrum_emits_no_warnings(generic_params):
    draws = [generic_params] + [ModelParams(*d) for d in _box_draws(200, 2026)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in draws:
            build_spectrum(p, n_neg=64)


def test_first_root_resonance(resonant_params):
    # unique root of omega*sin + 2*omega^2*cos/omega ... in (0.1, pi/2)
    oracle = secular_scan(lambda w: secular_negative(w, resonant_params),
                          0.1, math.pi / 2)
    assert len(oracle) == 1
    got = find_negative_modes(resonant_params, 3)
    assert got[0] == pytest.approx(oracle[0], abs=1e-11)
    assert got[0] == pytest.approx(1.3065, abs=1e-4)
    # subsequent roots sit in their pi-brackets
    for k, w in enumerate(got):
        assert k * math.pi < w < (k + 1) * math.pi


def test_roots_satisfy_secular(generic_params):
    for w in find_negative_modes(generic_params, 30):
        scale = max(1.0, abs(secular_negative_deriv(w, generic_params)) * w)
        assert abs(secular_negative(w, generic_params)) <= 1e-9 * scale


def test_roots_strictly_increasing(generic_params):
    roots = np.asarray(find_negative_modes(generic_params, 60))
    assert np.all(np.diff(roots) > 0)


def test_one_root_per_bracket_above_threshold(generic_params):
    n0, _ = detect_threshold(generic_params)
    counts = bracket_counts(generic_params, n0 + 1, n0 + 15)
    assert all(len(v) == 1 for v in counts.values())


def test_asymptote_decay_exponent(generic_params):
    roots = find_negative_modes(generic_params, 200)
    ks = np.arange(20, 201)
    errs = np.asarray([asymptote_error(roots[k - 1], generic_params)
                       for k in ks])
    slope, _ = loglog_fit(ks, errs)
    # the remainder is bounded by C/k^2; measured decay is in fact cubic
    # (the expansion of the root in 1/omega has only odd powers)
    assert -slope >= 1.8
    assert np.all(errs <= errs[0] * (ks[0] / ks) ** 2 * 1.5)


def test_positive_family_absent_when_detuned_up():
    # both springs at or above the string frequency: no exponential modes
    p = ModelParams(1.0, 1.0, 1.0, 1.5, 1.0)
    physical, flagged = find_positive_modes(p)
    assert physical == [] and flagged == []


def test_secular_positive_large_omega_negative(generic_params):
    assert secular_positive(30.0, generic_params) < 0.0


def test_positive_family_matches_scan_oracle():
    p = ModelParams(1.0, 1.0, 4.0, 1.0, 1.0)  # delta0 = delta1 = -3
    oracle = secular_scan(lambda w: secular_positive(w, p), 1e-6, 2.0 - 1e-9)
    physical, _ = find_positive_modes(p)
    assert len(physical) == len(oracle) >= 1
    for got, exp in zip(physical, oracle):
        assert got == pytest.approx(exp, abs=1e-10)
    # all physical eigenvalues stay below the string threshold
    assert all(w * w < p.w2 for w in physical)


def test_zero_mode_condition():
    assert zero_mode_defect(ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)) == 0.0
    assert zero_mode_defect(ModelParams(1.0, 1.0, 1.0, 2.0, 2.0)) > 0.0
    # mu0*delta0 = -1/2 and mu1*delta1 = 1 gives (1/2)(2) = 1
    p = ModelParams(1.0, 1.0, 1.0, 0.5, 2.0)
    assert zero_mode_defect(p) == pytest.approx(0.0, abs=1e-15)
    # the omega->0 limit of the oscillatory secular function vanishes too
    w = 1e-5
    limit = secular_negative(w, p) / w
    d0, d1 = p.delta(0), p.delta(1)
    expected = -(p.mu0 * d0 + p.mu1 * d1 + p.mu0 * p.mu1 * d0 * d1)
    assert expected == pytest.approx(0.0, abs=1e-15)
    assert abs(limit) <= 1e-8


def test_zero_mode_in_spectrum():
    p = ModelParams(1.0, 1.0, 1.0, 0.5, 2.0)
    spec = build_spectrum(p, n_neg=4)
    zeros = [m for m in spec.modes if m.kind == "zero"]
    assert len(zeros) == 1
    z = zeros[0]
    assert z.n == 0 and z.lam == 0.0
    # affine profile 1 + mu0*delta0*x = 1 - x/2 up to normalization
    x = np.linspace(0.0, 1.0, 5)
    prof = z.profile(x)
    assert np.allclose(prof / prof[0], 1.0 - 0.5 * x, atol=1e-13)


def test_no_zero_mode_generic(generic_spectrum):
    assert all(m.kind != "zero" for m in generic_spectrum.modes)


def test_eigenfunction_value_at_zero(generic_params):
    w = find_negative_modes(generic_params, 1)[0]
    a, b = eigenfunction_closed_form("neg", w, generic_params)
    assert a == w  # X(0) = omega
    assert b == generic_params.mu0 * (generic_params.delta(0) - w * w)


def _check_boundary_rows(mode, params, tol=1e-10):
    lam = mode.lam
    x0, d_x0 = mode.profile(0.0), mode.dprofile(0.0)
    x1, d_x1 = mode.profile(1.0), mode.dprofile(1.0)
    scale = max(1.0, abs(d_x0), abs(d_x1))
    assert abs(d_x0 - params.mu0 * (lam + params.delta(0)) * x0) <= tol * scale
    assert abs(d_x1 + params.mu1 * (lam + params.delta(1)) * x1) <= tol * scale


def test_boundary_rows_negative_family(generic_spectrum, generic_params):
    for mode in generic_spectrum.negative_modes[:10]:
        _check_boundary_rows(mode, generic_params)


def test_boundary_rows_positive_family():
    p = ModelParams(1.0, 1.0, 4.0, 1.0, 1.0)
    spec = build_spectrum(p, n_neg=2)
    pos = [m for m in spec.modes if m.kind == "pos"]
    assert pos, "expected at least one exponential mode"
    for mode in pos:
        _check_boundary_rows(mode, p, tol=1e-9)


def test_normalization_unit_mu_norm(generic_spectrum, generic_cal, grid4096):
    for y in generic_spectrum.basis(grid4096)[:8]:
        assert inner_mu(y, y, generic_cal) == pytest.approx(1.0, abs=1e-10)


def test_normalization_growth(generic_params):
    spec = build_spectrum(generic_params, n_neg=200, include_positive=False)
    ns = np.arange(20, 201)
    gs = np.asarray([m.g for m in spec.negative_modes])[19:200]
    slope, _ = loglog_fit(ns, gs)
    assert 1.9 <= slope <= 2.1


def test_normalization_formula_cross_check(generic_spectrum):
    # the printed closed-form g is recorded alongside the exact value and a
    # warning flag marks modes where the two disagree beyond 1e-6 relative
    for m in generic_spectrum.negative_modes[:20]:
        assert m.g > 0
        assert m.g_formula is not None
        assert m.g_warning == (abs(m.g_formula - m.g) > 1e-6 * m.g)


def test_normalization_formula_runs(generic_params):
    w = find_negative_modes(generic_params, 1)[0]
    assert normalization_formula(w, generic_params) > 0.0


def test_basis_robin_residual(generic_spectrum, generic_cal, grid512):
    for y in generic_spectrum.basis(grid512)[:6]:
        r0, r1 = robin_residual(y, generic_cal)
        assert max(abs(r0), abs(r1)) <= 1e-9


def test_basis_atoms_equal_traces_at_resonance(resonant_params, grid512):
    cal = calibrate(resonant_params)
    spec = build_spectrum(resonant_params, cal, n_neg=4)
    for mode in spec.negative_modes:
        y = basis_mode(mode, resonant_params, cal, grid512)
        assert y.v0 == y.trace0
        assert y.v1 == y.trace1


def _basis_mode_reference(mode, params, cal, grid):
    """The per-mode sampler that the Basis array replaced, with its Robin check."""
    vals = mode.profile(grid.x) / mode.g
    f0 = 1.0 - cal.alpha0 * params.mu0 * params.delta(0)
    f1 = 1.0 - cal.alpha1 * params.mu1 * params.delta(1)
    y = MuFunction(vals, f0 * float(vals[0]), f1 * float(vals[-1]))
    r0, r1 = robin_residual(y, cal)
    scale = max(1.0, abs(cal.a0 * y.v0), abs(cal.a1 * y.v1))
    assert max(abs(r0), abs(r1)) <= 1e-9 * scale
    return y


@pytest.mark.parametrize("params", [
    (1.5, 0.8, 2.0, 2.5, 1.2),   # generic, with an exponential-family mode
    (1.0, 1.0, 1.0, 0.5, 2.0),   # zero mode
    (1.0, 1.0, 1.0, 1.0, 1.0),   # resonance
    (1.0, 1.0, 100.0, 0.0, 0.0),  # near-degenerate exponential pair
])
def test_basis_rows_match_per_mode_sampling(params, grid512):
    p = ModelParams(*params)
    cal = calibrate(p)
    spec = build_spectrum(p, cal, n_neg=40)
    basis = spec.basis(grid512)
    assert isinstance(basis, Basis)
    assert basis.values.shape == (len(spec.modes), grid512.n_grid + 1)
    for i, mode in enumerate(spec.modes):
        ref = _basis_mode_reference(mode, p, cal, grid512)
        one = basis_mode(mode, p, cal, grid512)
        assert np.array_equal(basis.values[i], mode.profile(grid512.x) / mode.g)
        for y in (basis[i], one):
            assert np.array_equal(y.values, ref.values)
            assert (y.v0, y.v1) == (ref.v0, ref.v1)


def test_basis_behaves_like_list(generic_spectrum, grid512):
    basis = generic_spectrum.basis(grid512)
    rows = list(basis)
    assert len(basis) == len(rows) == len(generic_spectrum.modes)
    assert all(isinstance(y, MuFunction) for y in rows)
    for i in (0, 5, -1, -len(basis)):
        y = basis[i]
        assert np.array_equal(y.values, rows[i].values)
        assert (y.v0, y.v1) == (rows[i].v0, rows[i].v1)
    with pytest.raises(IndexError):
        basis[len(basis)]
    for sl in (slice(None, 7), slice(3, 9), slice(None, None, -2), slice(5, 5)):
        part = basis[sl]
        assert isinstance(part, Basis)
        assert len(part) == len(rows[sl])
        for y, r in zip(part, rows[sl]):
            assert np.array_equal(y.values, r.values) and (y.v0, y.v1) == (r.v0, r.v1)
    assert [y.v0 for y in basis[:4]] == [y.v0 for y in rows[:4]]
    # rows are views of one read-only array, so the cached basis cannot be edited
    assert np.shares_memory(basis[2].values, basis.values)
    for arr in (basis.values, basis.v0, basis.v1, basis[2].values):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_basis_robin_violation_names_mode(generic_params, generic_cal, grid512):
    spec = build_spectrum(generic_params, generic_cal, n_neg=12)
    modes = list(spec.modes)
    k = 5
    modes[k] = dataclasses.replace(modes[k], a_coef=float("nan"))
    bad = dataclasses.replace(spec, modes=modes, _basis_cache={})
    with pytest.raises(RobinViolation, match=rf"mode n={modes[k].n}:"):
        bad.basis(grid512)
    with pytest.raises(RobinViolation, match=rf"mode n={modes[k].n}:"):
        basis_mode(modes[k], generic_params, generic_cal, grid512)
    # a finite profile that is not the eigenfunction fails the row at x = 0
    wrong_x = dataclasses.replace(spec.modes[k], a_coef=2.0 * spec.modes[k].a_coef + 0.3)
    with pytest.raises(RobinViolation, match=rf"mode n={wrong_x.n}:"):
        basis_mode(wrong_x, generic_params, generic_cal, grid512)
    # atoms that do not match the Robin couplings fail from the first mode on
    wrong = dataclasses.replace(generic_cal, a0=1.01 * generic_cal.a0)
    with pytest.raises(RobinViolation, match=rf"mode n={spec.modes[0].n}:"):
        dataclasses.replace(spec, cal=wrong, _basis_cache={}).basis(grid512)


def test_gram_orthonormality(generic_spectrum, grid4096):
    G = gram_matrix(generic_spectrum, grid4096, 30)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) <= 1e-8
    assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-10


def test_completeness_proxy(generic_spectrum, generic_cal, grid4096):
    # reconstruction error of a smooth Robin-domain function decreases in N
    h = MuFunction.from_callable(lambda x: np.exp(-x) * np.cos(2.0 * x),
                                 grid4096)
    h = MuFunction(h.values, *robin_atoms(h.trace0, h.trace1, generic_cal))
    basis = generic_spectrum.basis(grid4096)
    coeffs = np.asarray([inner_mu(h, y, generic_cal) for y in basis])
    norm_sq = inner_mu(h, h, generic_cal)
    errs = [norm_sq - np.sum(coeffs[:n] ** 2) for n in (8, 16, 32, 64)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-4 * norm_sq


def test_all_eigenvalues_below_threshold(generic_spectrum, generic_params):
    assert np.all(generic_spectrum.lambdas < generic_params.w2)


def test_matrix_oracle_equivalence(generic_params, generic_spectrum):
    # independent finite-difference generalized eigenproblem reproduces the
    # lowest squared frequencies Omega^2 = w2 - lambda
    oracle = matrix_frequencies(generic_params, 2048, k=8)
    freqs = np.sort(generic_params.w2 - generic_spectrum.lambdas)[:5]
    for got, exp in zip(freqs, oracle[:5]):
        assert got == pytest.approx(exp, rel=1e-3)


def test_export_csv(tmp_path, generic_spectrum):
    path = tmp_path / "spec.csv"
    export_csv(generic_spectrum, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,class,omega,lambda,g,asymptote_error"
    assert len(lines) == 1 + len(generic_spectrum.modes)
    first = lines[1].split(",")
    assert first[1] in {"neg", "zero", "pos"}
    float(first[2]), float(first[3]), float(first[4])
    stamped = tmp_path / "stamped.csv"
    export_csv(generic_spectrum, stamped, header=["# config=abc"])
    assert stamped.read_text() == "# config=abc\n" + path.read_text()
