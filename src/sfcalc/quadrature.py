"""Adaptive composite Gauss-Legendre quadrature.

Panels are bisected until the local error estimate (15-point rule on the
whole panel against the two half panels) meets its share of the absolute
tolerance.  Interior discontinuities or kinks must be declared up front as
breakpoints; panels never straddle a declared breakpoint.  Bisection runs
level by level.  Every initial panel is bisected once, so the integrand is
called once on the nodes of all initial panels followed by both halves of
each, then once per further level on both halves of every panel that level
bisects.  Acceptance depends on the panel alone and accepted panels are
summed by descending left end, so the result is bitwise that of depth-first
bisection popping the right half first.

A bisected panel whose error estimate is within 16 eps of the rule applied
to |f| on its halves is at its rounding floor: bisecting it further cannot
lower the estimate, so it is accepted, and the quadrature fails only if the
summed estimates exceed the tolerance.
"""

import math

import numpy as np

from .errors import DomainError, NumericError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_EPS = np.finfo(float).eps


def _evaluate(f, panels):
    """f on the 15 nodes of each ``(lo, hi)`` panel, in panel order, from
    one call of ``f``."""
    nodes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES for lo, hi in panels]
    return np.asarray(f(np.concatenate(nodes)), dtype=float)


def _halves(panels):
    """Both halves of each ``(lo, hi)`` panel, left half first."""
    return [half for lo, hi in panels
            for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]


def _panel_values(fvals, panels):
    """The 15-point rule applied to f and to |f| on each ``(lo, hi)`` panel,
    from f's values ``fvals`` on their nodes; a non-finite panel value is a
    NumericError."""
    values = []
    for k, (lo, hi) in enumerate(panels):
        row = fvals[k * len(_NODES):(k + 1) * len(_NODES)]
        value = 0.5 * (hi - lo) * float(_WEIGHTS @ row)
        if not math.isfinite(value):
            raise NumericError(
                f"integrand is not finite on the panel [{lo!r}, {hi!r}]")
        values.append(value)
    half_widths = 0.5 * np.diff(panels, axis=1)[:, 0]
    sizes = half_widths * (np.abs(fvals).reshape(len(panels), -1) @ _WEIGHTS)
    return values, sizes.tolist()


def adaptive_gauss_legendre(f, a, b, abs_tol=1e-10, max_panels=2 ** 14,
                            breakpoints=()):
    """Integrate the vectorized callable ``f`` over ``[a, b]``, a < b, to a
    positive finite ``abs_tol`` (else a :class:`DomainError`).

    Returns ``(value, error_estimate, panels_used)``.  ``max_panels`` caps
    the panels evaluated: a level that would pass it is not evaluated, and
    a :class:`NumericError` carries the partial estimate (accepted panels
    plus the panels still to bisect).  The first level, both halves of
    every initial panel, is evaluated in the same call of ``f`` as the
    initial panels unless it alone would pass the cap.  A panel whose
    value is not finite stops the quadrature with a NumericError naming
    it, and so does an ``abs_tol`` below eps times the summed |values| of
    the initial panels, which rounding keeps any error estimate from
    reaching; that error carries the initial panels' sum, and is checked
    after the initial panels are found finite and before their halves
    are.  Panels accepted at their rounding floor whose estimates sum
    past ``abs_tol`` are a NumericError carrying the value.
    """
    if not a < b:
        raise DomainError(f"quadrature needs a < b, got [{a!r}, {b!r}]")
    if not 0 < abs_tol < math.inf:
        raise DomainError(f"quadrature needs a positive finite tolerance, got {abs_tol!r}")

    cuts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a] + cuts + [b]
    span = b - a
    min_width = 1e-14 * span

    initial = list(zip(edges[:-1], edges[1:]))
    first = _halves(initial) if 3 * len(initial) <= max_panels else []
    fvals = _evaluate(f, initial + first)
    split = len(initial) * len(_NODES)
    values, _ = _panel_values(fvals[:split], initial)
    rounding = _EPS * sum(abs(value) for value in values)
    if abs_tol < rounding:
        raise NumericError(
            f"tolerance {abs_tol:.3e} is below the rounding error {rounding:.3e} "
            "of the panel sums", partial=sum(values))
    pending = [(lo, hi, value) for (lo, hi), value in zip(initial, values)]
    used = len(pending)
    accepted = []   # (lo, refined, err)
    worst = 0.0     # largest error estimate the last level rejected
    ahead = fvals[split:]   # f on ``first``; empty only when the budget stops it

    while pending:
        if used + 2 * len(pending) > max_panels:
            raise NumericError(
                "quadrature did not converge within the panel budget "
                f"({max_panels} panels, error estimate {worst:.3e})",
                partial=sum(p[1] for p in accepted) + sum(p[2] for p in pending))
        halves = _halves((lo, hi) for lo, hi, _ in pending)
        if ahead is None:
            ahead = _evaluate(f, halves)
        values, sizes = _panel_values(ahead, halves)
        ahead = None
        used += len(halves)
        level, pending, worst = pending, [], 0.0
        for k, (lo, hi, whole) in enumerate(level):
            refined = values[2 * k] + values[2 * k + 1]
            err = abs(whole - refined)
            if (err <= abs_tol * (hi - lo) / span or (hi - lo) <= min_width
                    or err <= 16 * _EPS * (sizes[2 * k] + sizes[2 * k + 1])):
                accepted.append((lo, refined, err))
            else:
                worst = max(worst, err)
                pending += [(*halves[j], values[j]) for j in (2 * k, 2 * k + 1)]

    total = 0.0
    err_total = 0.0
    for _, refined, err in sorted(accepted, key=lambda p: p[0], reverse=True):
        total += refined
        err_total += err
    if err_total > abs_tol:
        raise NumericError(
            f"quadrature stopped at its rounding floor with error estimate "
            f"{err_total:.3e} above the tolerance {abs_tol:.3e}", partial=total)
    return total, err_total, used
