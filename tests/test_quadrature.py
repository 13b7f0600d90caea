"""Adaptive quadrature: convergence, breakpoints, failure reporting."""

import math
from collections import Counter

import numpy as np
import pytest

from sfcalc.errors import DomainError, NumericError
from sfcalc.quadrature import adaptive_gauss_legendre


def test_polynomial_exact():
    value, err, _ = adaptive_gauss_legendre(lambda x: x ** 6, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 7.0, abs=1e-14)
    assert err < 1e-12


def test_gaussian_matches_erf():
    value, _, _ = adaptive_gauss_legendre(lambda x: np.exp(-x ** 2), -2.0, 2.0,
                                          abs_tol=1e-12)
    assert value == pytest.approx(math.sqrt(math.pi) * math.erf(2.0), abs=1e-11)


def test_limits_not_in_increasing_order_are_refused():
    # reversed, equal and NaN limits: the integrand is never called
    def never(x):
        raise AssertionError("integrand called")

    for a, b in ((1.0, 0.0), (0.5, 0.5), (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="quadrature needs a < b"):
            adaptive_gauss_legendre(never, a, b)


def test_a_tolerance_that_is_not_positive_and_finite_is_refused():
    def never(x):
        raise AssertionError("integrand called")

    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(DomainError, match="positive finite tolerance"):
            adaptive_gauss_legendre(never, 0.0, 1.0, abs_tol=tol)


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


def test_rounding_floor_above_tolerance_is_refused_after_one_level():
    # 1e10 sin(20 pi x) integrates to 0 over [0, 1], so the initial panel
    # passes the first-level check, but the rounding of each half's own sum,
    # about eps * 1e10, stays above abs_tol however far it is bisected
    calls = []

    def f(x):
        calls.append(len(x))
        return 1e10 * np.sin(20.0 * np.pi * x)

    with pytest.raises(NumericError, match="rounding floor") as info:
        adaptive_gauss_legendre(f, 0.0, 1.0, abs_tol=1e-8)
    assert abs(info.value.partial) < 1e-5
    assert calls == [15, 30]


def _depth_first(f, a, b, abs_tol, breakpoints=()):
    """Reference: depth-first bisection that pops the right half first and
    sums accepted panels as it pops them.  Returns (value, error, panels,
    bisected) with ``bisected`` the (lo, hi) of every bisected panel."""
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def rule(lo, hi):
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        return 0.5 * (hi - lo) * float(weights @ np.asarray(f(x), dtype=float))

    edges = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    stack = [(lo, hi, rule(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    used, total, err_total, bisected = len(stack), 0.0, 0.0, []
    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        bisected.append((lo, hi))
        used += 2
        err = abs(whole - (left + right))
        if err <= abs_tol * (hi - lo) / (b - a) or (hi - lo) <= 1e-14 * (b - a):
            total += left + right
            err_total += err
            continue
        stack += [(lo, mid, left), (mid, hi, right)]
    return total, err_total, used, bisected


@pytest.mark.parametrize("f, breakpoints", [
    (lambda x: np.exp(-x ** 2) * np.sin(5.0 * x), (0.25, 0.7)),
    (lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), ()),
    (lambda x: (x >= 0.3).astype(float) + x ** 2, (0.3,)),
], ids=["smooth", "kinked", "breakpoint-step"])
@pytest.mark.parametrize("abs_tol", [1e-6, 1e-9, 1e-12])
def test_level_order_matches_depth_first_bitwise(f, breakpoints, abs_tol):
    value, err, used = adaptive_gauss_legendre(f, 0.0, 1.0, abs_tol=abs_tol,
                                               breakpoints=breakpoints)
    ref_value, ref_err, ref_used, _ = _depth_first(f, 0.0, 1.0, abs_tol,
                                                   breakpoints)
    assert (value.hex(), err.hex(), used) == (ref_value.hex(), ref_err.hex(),
                                              ref_used)


def test_bisection_evaluates_both_halves_in_one_call():
    """One call on the initial panel, then one call per level on both
    halves of every panel that level bisects."""
    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.sqrt(np.abs(x - 1.0 / 3.0))

    _, _, used = adaptive_gauss_legendre(f, 0.0, 1.0, abs_tol=1e-8)
    calls = list(sizes)
    _, _, _, bisected = _depth_first(f, 0.0, 1.0, 1e-8)
    # from the single panel [0, 1], level k bisects the panels of width 2**-k
    per_level = Counter(hi - lo for lo, hi in bisected)
    assert len(per_level) > 3
    assert calls == [15] + [
        30 * per_level[w] for w in sorted(per_level, reverse=True)]
    assert used == 1 + 2 * len(bisected)
