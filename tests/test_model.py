import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cubic_roots_scan
from stringmass.errors import DegenerateBranch
from stringmass.model import (
    CalibratedMeasure,
    ModelParams,
    calibrate,
    calibrate_alpha,
    coupling_A,
    cubic_residual,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("field", range(5))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(field, bad):
    values = [1.0, 1.0, 1.0, 1.0, 1.0]
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        ModelParams(*values)


def test_delta_accessor():
    p = ModelParams(1.0, 2.0, 1.5, 2.5, 0.5)
    assert p.delta(0) == 1.0
    assert p.delta(1) == -1.0


def test_alpha_resonance_exact():
    assert calibrate_alpha(1.0, 0.0) == [1.0]
    assert calibrate_alpha(2.0, 0.0) == [2.0]


def test_alpha_against_bisection_oracle():
    # unique positive root of a(1-a)^2 = 1, i.e. a^3-2a^2+a-1=0
    expected = cubic_roots_scan(1.0, 1.0)
    assert len(expected) == 1
    got = calibrate_alpha(1.0, 1.0)
    assert len(got) == 1
    assert got[0] == pytest.approx(expected[0], abs=1e-11)
    assert got[0] == pytest.approx(1.7549, abs=1e-4)


def test_coupling_examples():
    assert coupling_A(1.0, 0.0, 1.0) == 0.0
    alpha = calibrate_alpha(1.0, 1.0)[0]
    assert coupling_A(1.0, 1.0, alpha) == pytest.approx(-1.3247, abs=1e-4)
    # defining identity v*(1 - alpha*mu*delta) = mu*delta
    mu, delta = 3.0, -0.5
    for alpha in calibrate_alpha(mu, delta):
        v = coupling_A(mu, delta, alpha)
        assert v * (1.0 - alpha * mu * delta) == pytest.approx(
            mu * delta, abs=1e-12)


def test_coupling_degenerate_branch():
    with pytest.raises(DegenerateBranch):
        coupling_A(1.0, 1.0, 1.0)


def test_calibrate_resonance_cases():
    cal = calibrate(ModelParams(1.0, 1.0, 1.0, 1.0, 1.0))
    assert (cal.alpha0, cal.alpha1) == (1.0, 1.0)
    assert (cal.a0, cal.a1, cal.c0, cal.c1) == (0.0, 0.0, 0.0, 0.0)
    cal = calibrate(ModelParams(2.0, 3.0, 1.0, 1.0, 1.0))
    assert (cal.alpha0, cal.alpha1) == (2.0, 3.0)
    assert (cal.a0, cal.a1) == (0.0, 0.0)


def test_calibrate_detuned_example():
    cal = calibrate(ModelParams(1.0, 1.0, 1.0, 2.0, 2.0))
    assert cal.alpha0 == pytest.approx(1.7549, abs=1e-4)
    assert cal.alpha1 == pytest.approx(cal.alpha0, rel=1e-14)
    assert cal.a0 == pytest.approx(-1.3247, abs=1e-4)
    assert cal.branch0 == -1


def _check_measure(params: ModelParams, cal: CalibratedMeasure):
    for j in (0, 1):
        mu, delta = params.mu(j), params.delta(j)
        alpha, a, c = cal.alpha(j), cal.a(j), cal.c(j)
        assert alpha > 0
        scale = mu + alpha * (1.0 + abs(mu * delta) * alpha) ** 2
        assert abs(cubic_residual(alpha, mu, delta)) <= 1e-12 * scale
        assert abs(a * (1.0 - alpha * mu * delta) - mu * delta) \
            <= 1e-12 * max(1.0, abs(mu * delta))
        assert c == a * alpha
        # eigencondition coefficient alpha(1-alpha*mu*delta)^2*lam + mu*delta
        # must equal mu*(lam+delta) for any lam
        for lam in (-3.3, 0.1, 7.7):
            lhs = alpha * (1.0 - alpha * mu * delta) ** 2 * lam + mu * delta
            assert lhs == pytest.approx(mu * (lam + delta),
                                        abs=1e-10 * max(1.0, abs(lam) * mu))


@settings(max_examples=60, deadline=None)
@given(
    mu0=st.floats(0.05, 20.0),
    mu1=st.floats(0.05, 20.0),
    w2=st.floats(0.1, 10.0),
    w02=st.floats(0.0, 15.0),
    w12=st.floats(0.0, 15.0),
)
def test_calibration_invariants(mu0, mu1, w2, w02, w12):
    params = ModelParams(mu0, mu1, w2, w02, w12)
    cal = calibrate(params)
    _check_measure(params, cal)


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.05, 20.0), delta=st.floats(-10.0, 10.0))
def test_alpha_roots_match_scan(mu, delta):
    got = calibrate_alpha(mu, delta)
    expected = cubic_roots_scan(mu, delta)
    assert len(got) >= 1
    for r in got:
        # backward-error scale: sum of magnitudes of the cubic's terms
        scale = mu + r * (1.0 + abs(mu * delta) * r) ** 2
        assert abs(cubic_residual(r, mu, delta)) <= 1e-12 * scale
    # every scan root is found (scan may miss near-double roots; got may not)
    for r in expected:
        assert min(abs(r - g) for g in got) <= 1e-6 * max(1.0, r)
