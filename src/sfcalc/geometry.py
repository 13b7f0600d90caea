"""Odd signature operator on the circle under a path of metrics.

Functions and 1-forms are discretized in a real Fourier basis
{1, cos x, sin x, ..., cos(n/2 x), sin(n/2 x)} (n + 1 coefficients per form
degree).  Differentiation is exact on resolved modes; multiplication by the
conformal factor h is a dealiased pointwise product on a 2n-point grid.  The
discrete Hodge star on 1-forms is the exact matrix inverse of the star on
functions, so the chirality involution squares to the identity exactly and
all adjointness relations hold at roundoff level.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .apsindex import SuspensionProblem, aps_index
from .engines import (CHI_PROFILES, cg_bound, sf_appendix, sf_crossing,
                      sf_integral, sf_phillips)
from .errors import DomainError, ValidationError
from .generators import dirac_path
from .path import OperatorPath, flat_profile, hermite, hermite_tangents
from .tracemodel import (BlockHermitian, FrequencyModel, IndicatorSymbol,
                         SpectralDecomposition, WeightedBlockModel, eigh,
                         freq_trace)

__all__ = ["CircleMetricPath", "SignatureOperator", "build_signature",
           "trivialization", "trivialized_path", "signature_flow_scenario",
           "dirac_family_scenario", "standard_metric_paths", "METRIC_PROFILES"]


# ---------------------------------------------------------------------------
# Fourier scaffolding

def _fourier_basis(n):
    """Evaluation matrix of the n+1 real Fourier modes on the 2n grid."""
    grid = np.arange(2 * n) * (math.pi / n)
    cols = [np.ones_like(grid)]
    for j in range(1, n // 2 + 1):
        cols.append(np.cos(j * grid))
        cols.append(np.sin(j * grid))
    return np.stack(cols, axis=1)


def _diff_matrix(n):
    m = n + 1
    dx = np.zeros((m, m))
    for j in range(1, n // 2 + 1):
        dx[2 * j, 2 * j - 1] = -j   # d/dx cos(jx) = -j sin(jx)
        dx[2 * j - 1, 2 * j] = j    # d/dx sin(jx) =  j cos(jx)
    return dx


def _sym_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    if np.any(vals <= 0):
        raise ValidationError("matrix square root needs a positive definite input")
    return (vecs * np.sqrt(vals)) @ vecs.T, (vecs / np.sqrt(vals)) @ vecs.T


# ---------------------------------------------------------------------------
# metric paths

@dataclass(frozen=True, eq=False)
class CircleMetricPath:
    """Conformal factor h(u, x) > 0 as Fourier data in x, sampled in u.

    ``coeff_samples[j]`` holds the n + 1 real Fourier coefficients of
    h(u_j, .); evaluation between samples uses a C^1 cubic interpolant.
    The path must be constant near u = 0 and u = 1, and h at least 1e-6.
    """

    u_samples: np.ndarray
    coeff_samples: np.ndarray = field(repr=False)
    n: int

    def __init__(self, u_samples, coeff_samples, n):
        n = int(n)
        if n < 4 or n % 2:
            raise ValidationError("spatial resolution n must be an even integer >= 4")
        us = np.asarray(u_samples, dtype=float)
        coeffs = np.asarray(coeff_samples, dtype=float)
        if coeffs.shape != (us.size, n + 1):
            raise ValidationError(
                f"coefficient array shape {coeffs.shape} does not match "
                f"({us.size}, {n + 1})")
        if us[0] != 0.0 or us[-1] != 1.0 or np.any(np.diff(us) <= 0):
            raise ValidationError("u samples must increase strictly from 0 to 1")
        if us.size < 4:
            raise ValidationError("need at least 4 u-samples")
        for i, j, side in ((0, 1, "start"), (-2, -1, "end")):
            if not np.array_equal(coeffs[i], coeffs[j]):
                raise ValidationError(f"metric must be constant near the {side}")
        object.__setattr__(self, "u_samples", us)
        object.__setattr__(self, "coeff_samples", coeffs)
        object.__setattr__(self, "n", n)
        basis = _fourier_basis(n)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_gram_flat", basis.T @ ((math.pi / n) * basis))
        object.__setattr__(self, "_tangents", hermite_tangents(us, coeffs))
        probe = np.linspace(0.0, 1.0, 4 * us.size + 1)
        h_min = (hermite(us, coeffs, self._tangents, probe)[0] @ basis.T).min(axis=1)
        if h_min.min() < 1e-6:
            j = int(np.argmax(h_min < 1e-6))
            raise ValidationError(
                f"conformal factor dips to {h_min[j]:.3e} at u={probe[j]:.3f}")

    def coefficients(self, u):
        u = float(u)
        if not 0.0 <= u <= 1.0:
            raise DomainError(f"metric parameter {u} outside [0, 1]")
        value, _ = hermite(self.u_samples, self.coeff_samples, self._tangents,
                           np.array([u]))
        return value[0]

    def h_grid(self, u):
        return self._basis @ self.coefficients(u)


# The conformal factors of the standard metric paths at time v, as
# {Fourier coefficient index: value}.
METRIC_PROFILES = {
    # 1 + 0.3 v (1 - v) sin x, a loop through the flat metric
    "loop_sin": lambda v: {0: 1.0, 2: 0.3 * v * (1.0 - v)},
    # 1 + 0.25 v cos x + 0.1 v sin 2x
    "cos_ramp": lambda v: {0: 1.0, 1: 0.25 * v, 4: 0.1 * v},
    # 1 + 0.2 v cos 2x + 0.15 v^2 sin x
    "mixed_quadratic": lambda v: {0: 1.0, 3: 0.2 * v, 2: 0.15 * v * v},
}


def _metric_from_profile(n, profile):
    """Sample a metric path at 17 times, warped so it is flat near the
    endpoints."""
    ts = np.linspace(0.0, 1.0, 17)
    coeffs = np.zeros((ts.size, n + 1))
    for row, t in zip(coeffs, ts):
        for idx, val in profile(float(flat_profile(t, 0.15))).items():
            row[idx] = val
    return CircleMetricPath(ts, coeffs, n)


def standard_metric_paths(n=16):
    """The endpoint-flat metric paths of :data:`METRIC_PROFILES`, by name."""
    return {name: _metric_from_profile(n, profile)
            for name, profile in METRIC_PROFILES.items()}


# ---------------------------------------------------------------------------
# signature operator assembly

@dataclass(frozen=True, eq=False)
class SignatureOperator:
    """Discrete tau d + d tau on functions and 1-forms, with its chirality
    involution and the metric Gram matrix."""

    matrix: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self):
        dim = 2 * (self.n + 1)
        tau2 = self.tau @ self.tau
        if np.linalg.norm(tau2 - np.eye(dim)) > 1e-10 * dim:
            raise ValidationError("chirality involution does not square to 1")
        gd = self.gram @ self.matrix
        defect = np.linalg.norm(gd - gd.conj().T)
        if defect > 1e-9 * max(1.0, np.linalg.norm(gd)):
            raise ValidationError(
                f"operator is not self-adjoint for the metric Gram ({defect:.3e})")


def _degree_pieces(metric, u):
    """Factor the metric at parameter u once.  Per form degree k = 0, 1:
    ``(D_k, G_k, G_k^{1/2}, G_k^{-1/2}, star_k)``, the operator block, the
    metric Gram matrix with its square roots, and the block of the
    chirality involution that maps degree k to the other degree."""
    weight = math.pi / metric.n
    mult_h = np.linalg.solve(metric._gram_flat, metric._basis.T @ (
        weight * (metric.h_grid(u)[:, None] * metric._basis)))
    mult_h_inv = np.linalg.inv(mult_h)
    dx = _diff_matrix(metric.n)
    pieces = []
    for d, mult, star in ((-1j * mult_h_inv @ dx, mult_h, 1j * mult_h),
                          (-1j * dx @ mult_h_inv, mult_h_inv, -1j * mult_h_inv)):
        g = metric._gram_flat @ mult
        g = 0.5 * (g + g.T)
        pieces.append((d, g, *_sym_sqrt(g), star))
    return pieces


def _by_degree(blocks):
    """Block-diagonal matrix with one block per form degree."""
    m = len(blocks[0])
    out = np.zeros((2 * m, 2 * m), dtype=np.result_type(*blocks))
    out[:m, :m], out[m:, m:] = blocks
    return out


def _similar(pieces, blocks):
    """G^{1/2} X G^{-1/2} per degree, for the degree blocks X of ``blocks``."""
    return _by_degree([root @ x @ inv_root
                       for (_, _, root, inv_root, _), x in zip(pieces, blocks)])


def build_signature(metric, u):
    """Assemble the signature operator at metric parameter u."""
    (d0, g0, _, _, star0), (d1, g1, _, _, star1) = _degree_pieces(metric, u)
    tau = np.block([[np.zeros_like(star1), star1], [star0, np.zeros_like(star0)]])
    return SignatureOperator(matrix=_by_degree([d0, d1]), tau=tau,
                             gram=_by_degree([g0, g1]), n=metric.n)


def engine_model(n):
    """Weighted block model for the trivialized operators: one block per
    form degree, unit weight."""
    return WeightedBlockModel([(n + 1, 1.0), (n + 1, 1.0)])


def _engine_matrix(pieces):
    """Similarity transform of the signature operator that is Hermitian for
    the standard inner product:  G_u^{1/2} D_u G_u^{-1/2}, per degree,
    symmetrized so that it is exactly Hermitian."""
    mat = _similar(pieces, [p[0] for p in pieces])
    return 0.5 * (mat + mat.conj().T)


def trivialization(metric, u):
    """Isometry from the metric-u inner-product space to the metric-0 one.

    Returns U with U* G_0 U = G_u exactly (up to matrix square-root
    roundoff); U_0 is the identity.
    """
    # G_0^{-1/2} G_u^{1/2} per degree
    return _by_degree([ref[3] @ cur[2] for ref, cur in
                       zip(_degree_pieces(metric, 0.0), _degree_pieces(metric, u))])


def trivialized_path(metric):
    """Engine-ready path of the trivialized signature operators."""
    return OperatorPath._of_stack(engine_model(metric.n), metric.u_samples.copy(), np.stack(
        [_engine_matrix(_degree_pieces(metric, float(u))) for u in metric.u_samples]))


def _fd4(values, delta):
    """Fourth-order central difference from samples at u-2d..u+2d."""
    m2, m1, p1, p2 = values
    return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * delta)


def _conjugation_residual(metric, u, s, pieces, dec):
    """| tr(dB/du e^{-sB^2}) - tr(dD/du e^{-sD^2}) | at parameter u.

    B is the similarity-transformed (standard-Hermitian) operator, given by
    its decomposition ``dec``, D the metric-self-adjoint one, factored as
    ``pieces``; the two traces agree identically, so the residual measures
    discretization and roundoff only.  The u-derivatives are fourth-order
    differences with step 1e-3.
    """
    delta = 1e-3
    probes = [_degree_pieces(metric, u + k * delta) for k in (-2, -1, 1, 2)]
    db = _fd4([_engine_matrix(p) for p in probes], delta)
    dd = [_fd4([p[k][0] for p in probes], delta) for k in (0, 1)]
    heat = (dec.eigenvectors * np.exp(-s * dec.eigenvalues ** 2)) @ dec.eigenvectors.conj().T
    tr_b = complex(np.trace(db @ heat)).real
    tr_d = complex(np.trace(_similar(pieces, dd) @ heat)).real
    return abs(tr_b - tr_d)


def signature_flow_scenario(metric, s_grid=(2.0, 4.0, 16.0, 64.0, 256.0), aps_grid=64):
    """Run the four spectral-flow engines on the trivialized signature path
    (the integral at s = 0.5, 2, 8, the appendix with the sine cutoff),
    compute the suspension index, and collect the heat-trace diagnostics at
    five parameters in [0.25, 0.75] (conjugation-invariance residual,
    two-term bound table, kernel traces, projection jumps).  Each of the
    five parameters is factored and decomposed once."""
    path = trivialized_path(metric)
    report = {"engines": {
        "crossing": sf_crossing(path),
        "phillips": sf_phillips(path),
        "integral": {s: sf_integral(path, s) for s in [0.5, 2.0, 8.0]},
        "appendix": sf_appendix(path, CHI_PROFILES["sine"](), rescale=True)},
        "n": metric.n}
    report["aps_index"] = aps_index(SuspensionProblem(path=path, grid_size=aps_grid))

    decs = [SpectralDecomposition.of_stack(path.model, path.spectra, j)
            for j in range(len(path.us))]
    report["kernel_traces"] = [d.weighted_count(d.kernel_mask()) for d in decs]
    projs = [v @ v.conj().T for v in (d.eigenvectors[:, d.nonneg_mask()] for d in decs)]
    report["projection_jumps"] = [float(np.linalg.norm(q - p, 2))
                                  for p, q in zip(projs[:-1], projs[1:])]

    probes = []
    for u in np.linspace(0.25, 0.75, 5):
        pieces = _degree_pieces(metric, float(u))
        probes.append((float(u), pieces,
                       eigh(BlockHermitian._trusted(path.model, _engine_matrix(pieces)))))
    s_res = s_grid[0] if s_grid else 2.0
    report["conjugation_residual"] = max(
        _conjugation_residual(metric, u, s_res, pieces, dec)
        for u, pieces, dec in probes)

    cg_table = {}
    lhs_means = {}
    for s in s_grid:
        rows = []
        for u, _, dec in probes:
            lhs, term_i, term_ii = cg_bound(dec, s)
            rows.append({"u": u, "lhs": lhs, "term_I": term_i,
                         "term_II": term_ii,
                         "bound_holds": lhs <= term_i + term_ii + 1e-12})
        cg_table[s] = rows
        lhs_means[s] = float(np.mean([r["lhs"] for r in rows]))
    report["cg_table"] = cg_table
    report["integrated_lhs"] = lhs_means
    ordered = [lhs_means[s] for s in s_grid]
    report["lhs_monotone_decreasing"] = all(
        b < a for a, b in zip(ordered[:-1], ordered[1:]))
    return report


# ---------------------------------------------------------------------------
# frequency-model Dirac family

def dirac_family_scenario(u_range=(-1.0, 1.0)):
    """Shifted-symbol family xi + u over ``u_range``, sampled at 5 points, on
    the default frequency model: nonzero spectral flow with identically
    trivial kernels."""
    u0, u1 = float(u_range[0]), float(u_range[1])
    model = FrequencyModel()
    path = dirac_path(model, u0, u1, 5)
    flow = sf_phillips(path)

    lo, hi = sorted((-u1, -u0))
    swept = freq_trace(model, IndicatorSymbol(lo, hi))

    tol = 1e-9
    kernel_traces = [freq_trace(model, IndicatorSymbol(-x - tol, -x + tol))
                     for x in path._stack[:, 0].tolist()]
    return {
        "sf_phillips": flow,
        "swept_window_trace": swept,
        "kernel_traces": kernel_traces,
        "max_kernel_trace": max(kernel_traces),
    }
