"""Adaptive quadrature: convergence, breakpoints, failure reporting."""

import math

import numpy as np
import pytest

from sfcalc.errors import NumericError
from sfcalc.quadrature import adaptive_gauss_legendre


def test_polynomial_exact():
    value, err, _ = adaptive_gauss_legendre(lambda x: x ** 6, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 7.0, abs=1e-14)
    assert err < 1e-12


def test_gaussian_matches_erf():
    value, _, _ = adaptive_gauss_legendre(lambda x: np.exp(-x ** 2), -2.0, 2.0,
                                          abs_tol=1e-12)
    assert value == pytest.approx(math.sqrt(math.pi) * math.erf(2.0), abs=1e-11)


def test_reversed_limits_negate():
    fwd, _, _ = adaptive_gauss_legendre(lambda x: x, 0.0, 1.0)
    rev, _, _ = adaptive_gauss_legendre(lambda x: x, 1.0, 0.0)
    assert rev == -fwd


def test_breakpoints_capture_jump():
    step = lambda x: (x >= 0.3).astype(float)
    value, err, _ = adaptive_gauss_legendre(step, 0.0, 1.0, abs_tol=1e-12,
                                            breakpoints=(0.3,))
    assert value == pytest.approx(0.7, abs=1e-12)
    assert err < 1e-12


def test_panel_budget_exhaustion_carries_partial():
    step = lambda x: (x >= 1.0 / math.pi).astype(float)
    with pytest.raises(NumericError) as info:
        adaptive_gauss_legendre(step, 0.0, 1.0, abs_tol=1e-13, max_panels=12)
    assert info.value.partial == pytest.approx(1.0 - 1.0 / math.pi, abs=1e-2)


def test_non_finite_panel_fails_at_once_naming_the_panel():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(NumericError, match=r"not finite on the panel \[0\.5, 1\.0\]"):
        adaptive_gauss_legendre(f, 0.0, 1.0, breakpoints=(0.5,))
    assert calls == [30]  # both initial panels in one call, no bisection


def test_bisection_evaluates_both_halves_in_one_call():
    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.sqrt(np.abs(x - 1.0 / 3.0))

    _, _, used = adaptive_gauss_legendre(f, 0.0, 1.0, abs_tol=1e-8)
    assert sizes[0] == 15 and set(sizes[1:]) == {30}
    assert used == 1 + 2 * (len(sizes) - 1)
