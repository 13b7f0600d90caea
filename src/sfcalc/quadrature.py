"""Adaptive composite Gauss-Legendre quadrature.

Panels are bisected until the local error estimate (15-point rule on the
whole panel against the two half panels) meets its share of the absolute
tolerance.  Interior discontinuities or kinks must be declared up front as
breakpoints; panels never straddle a declared breakpoint.  The integrand is
called once per step on the nodes of every panel the step needs: once for
the initial panels, then once per bisection for both halves.
"""

import math

import numpy as np

from .errors import NumericError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_values(f, panels):
    """The 15-point rule on each ``(lo, hi)`` panel, from one call of ``f``
    on all of their nodes; a non-finite panel value is a NumericError."""
    nodes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES for lo, hi in panels]
    fvals = np.asarray(f(np.concatenate(nodes)), dtype=float)
    values = []
    for k, (lo, hi) in enumerate(panels):
        row = fvals[k * len(_NODES):(k + 1) * len(_NODES)]
        value = 0.5 * (hi - lo) * float(_WEIGHTS @ row)
        if not math.isfinite(value):
            raise NumericError(
                f"integrand is not finite on the panel [{lo!r}, {hi!r}]")
        values.append(value)
    return values


def adaptive_gauss_legendre(f, a, b, abs_tol=1e-10, max_panels=2 ** 14,
                            breakpoints=()):
    """Integrate the vectorized callable ``f`` over ``[a, b]``.

    Returns ``(value, error_estimate, panels_used)``.  Raises
    :class:`NumericError` carrying the partial estimate when the panel
    budget is exhausted before convergence, and at once, naming the panel,
    when a panel value is not finite.
    """
    if b == a:
        return 0.0, 0.0, 0
    if b < a:
        value, err, used = adaptive_gauss_legendre(
            f, b, a, abs_tol=abs_tol, max_panels=max_panels,
            breakpoints=breakpoints)
        return -value, err, used

    cuts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a] + cuts + [b]
    span = b - a
    min_width = 1e-14 * span

    initial = list(zip(edges[:-1], edges[1:]))
    stack = [(lo, hi, value)
             for (lo, hi), value in zip(initial, _panel_values(f, initial))]
    used = len(stack)
    total = 0.0
    err_total = 0.0

    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left, right = _panel_values(f, [(lo, mid), (mid, hi)])
        used += 2
        refined = left + right
        err = abs(whole - refined)
        budget = abs_tol * (hi - lo) / span
        if err <= budget or (hi - lo) <= min_width:
            total += refined
            err_total += err
            continue
        if used >= max_panels:
            partial = total + refined + sum(w for _, _, w in stack)
            raise NumericError(
                "quadrature did not converge within the panel budget "
                f"({max_panels} panels, error estimate {err:.3e})",
                partial=partial)
        stack.append((lo, mid, left))
        stack.append((mid, hi, right))

    return total, err_total, used
