"""Discretized suspension operator d/du + D_u and its trace-weighted index.

The operator acts on grid functions over the path parameter; boundary
conditions of Atiyah-Patodi-Singer type remove the nonnegative spectral
components at the left end and the negative ones at the right end (the
formal adjoint carries the complementary conditions).  Kernels are detected
from singular values, per ambient block, by one rule, and weighted by the
block traces.  Assembly yields stencils, not matrices; a route gives each a
bracket on sigma_max and a kernel count at any cut: Sturm sequences on the
Golub-Kahan tridiagonal of a 1-dimensional block, which fills no matrix, or
a dense SVD of a larger one.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .engines import sf_crossing
from .errors import NumericError, PreconditionError, ValidationError
from .path import OperatorPath
from .tracemodel import (BlockHermitian, Interval, WeightedBlockModel, eigh,
                         endpoint_gap, nonneg_masks, spectral_projection)

__all__ = ["SuspensionProblem", "aps_index", "halfline_aps_apply_inverse",
           "halfline_residual", "perturbation_truncation_check"]

SCHEMES = ("forward-upwind", "implicit-midpoint")
GEOMETRIES = ("interval-APS", "cylinder")


@dataclass(frozen=True)
class SuspensionProblem:
    """Grid data for d/du + D_u with APS boundary conditions.

    ``grid_size`` is the number of intervals on [0, 1]; the cylinder
    geometry extends the path constantly by ``cylinder_length`` > 0 on both
    sides (default 4 / smallest endpoint gap) and imposes the boundary
    conditions at the truncated ends.
    """

    path: OperatorPath
    grid_size: int = 200
    scheme: str = "forward-upwind"
    geometry: str = "interval-APS"
    cylinder_length: float = None
    kernel_threshold: float = 1e-7

    def __post_init__(self):
        if not isinstance(self.path.model, WeightedBlockModel):
            raise ValidationError("suspension problems need a weighted block model")
        if not isinstance(self.grid_size, (int, np.integer)) or self.grid_size < 16:
            raise ValidationError("grid_size must be an integer >= 16")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.geometry not in GEOMETRIES:
            raise ValidationError(f"unknown geometry {self.geometry!r}")
        length = 1 if self.cylinder_length is None else self.cylinder_length
        for name, value in (("kernel_threshold", self.kernel_threshold),
                            ("cylinder_length", length)):
            if isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)):
                raise ValidationError(f"{name} must be a real number")
        if not self.kernel_threshold > 0:
            raise ValidationError("kernel_threshold must be positive")
        if not self.kernel_threshold < 0.1:  # else the window reaches sigma_max
            raise ValidationError("kernel_threshold must be below 0.1")
        if self.cylinder_length is not None and not self.cylinder_length > 0:
            raise ValidationError("cylinder_length must be positive")
        if self.geometry == "interval-APS" and not self.path.endpoint_flat:
            raise ValidationError("interval-APS requires an endpoint-flat path")
        if self.geometry == "cylinder":
            gap = endpoint_gap(self.path.spectra)
            if gap <= 1e-8:
                raise ValidationError(
                    f"cylinder geometry needs invertible endpoints (gap {gap:.3e})")


def physical_memory():
    """Bytes of physical memory, or infinity where the platform cannot say."""
    return (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if hasattr(os, "sysconf") else math.inf)


def _real_blocks(path):
    """Per block, whether its samples and its endpoint bases in the path's
    ``spectra`` have no imaginary part: the index then builds the block in
    float64, with real SVDs at half the bytes."""
    return [not (np.any(path._stack[:, sl, sl].imag) or np.any(v[[0, -1]].imag))
            for sl, (_, v) in zip(path.model.block_slices, path.spectra)]


def _grid(prob, real):
    """Node parameter values; cylinder nodes run beyond [0, 1].

    A grid whose index would not fit in physical memory is refused before
    it is built.  The largest need counts: 160 (1 + n^2) bytes an interval
    (n = dim), above tracemalloc's peak for 1-dimensional blocks, which fill
    nothing; and per block of dimension d >= 2 the matrix the index fills
    and the SVD's copy, each (K d) x ((K + 1) d) entries at most for K
    intervals, at 8 bytes for a block ``real`` marks (a float64 build) and
    16 otherwise.
    """
    m = prob.grid_size
    steps = 0
    if prob.geometry == "cylinder":
        length = prob.cylinder_length
        if length is None:
            length = 4.0 / endpoint_gap(prob.path.spectra)
        steps = float(length) * m
        if not steps < 2.0 ** 60:  # beyond any memory, and beyond the float range
            raise PreconditionError(
                f"a cylinder of length {length:g} needs {steps:g} grid intervals "
                f"on each side at grid size {m}; reduce the cylinder length")
        steps = max(1, math.ceil(steps))
    model, k = prob.path.model, m + 2 * steps
    need, size = 160 * (1 + model.dim ** 2) * k, f"{k} grid intervals"
    for (d, _), is_real in zip(model.blocks, real):
        entry = 8 if is_real else 16
        if d > 1 and (block := 2 * entry * (k * d) * ((k + 1) * d)) > need:
            need, size = block, f"dense {k * d} x {(k + 1) * d} matrices"
    memory = physical_memory()
    if need > memory:
        raise PreconditionError(
            f"the index needs {size}, at most {need / 2 ** 30:.1f} GiB "
            f"against {memory / 2 ** 30:.1f} GiB of physical memory; reduce "
            "the grid size or the cylinder length")
    if steps == 0:
        return np.linspace(0.0, 1.0, m + 1)
    return np.arange(-steps, m + steps + 1) / m


def _couplings(dm, h, sign):
    """Coefficients of node j and of node j + 1 in row block j."""
    eye = np.eye(dm.shape[1])
    return sign * (-eye / h) + 0.5 * dm, sign * (eye / h) + 0.5 * dm


def _fill(dm, h, sign, q_first, q_last):
    """Block-bidiagonal matrix of sign * d/du + D on one block.

    ``dm`` stacks the block of D on each grid interval.  Row block j couples
    node j (coefficient sign * (-I/h) + D_j / 2) with node j + 1
    (sign * (I/h) + D_j / 2); the boundary nodes carry the bases ``q_first``
    and ``q_last``, interior nodes all d components.
    """
    k, d, _ = dm.shape
    left, right = _couplings(dm, h, sign)
    k_first, k_last = q_first.shape[1], q_last.shape[1]
    cols = k_first + (k - 1) * d + k_last
    mat = np.zeros((k * d, cols), dtype=np.result_type(dm, q_first, q_last))
    # adding into the zero matrix stores every zero entry as +0.0
    mat[:d, :k_first] += left[0] @ q_first
    mat[-d:, cols - k_last:] += right[-1] @ q_last
    node = np.arange(1, k)[:, None, None]
    comp = np.arange(d)
    rows = node * d + comp[:, None]
    node_cols = k_first + (node - 1) * d + comp
    mat[rows, node_cols] += left[1:]
    mat[rows - d, node_cols] += right[:-1]
    return mat


def _block_matrices(prob):
    """Yield, per block in the model's order, the stencil of A_b and then
    that of A_adj_b: the arguments of :func:`_fill`, not the dense matrix.

    A_b is d/du + D with the APS conditions (no nonnegative components at
    the first node, no negative ones at the last), A_adj_b is -d/du + D with
    the complementary ones.  Rows are interval values (grid-major), columns
    are the unconstrained node components.  The path is evaluated once per
    distinct clamped point: interval midpoints (forward-upwind) or nodes
    (implicit-midpoint, which averages D over each node pair).  The boundary
    bases are each block's endpoint eigenvectors in the path's ``spectra``,
    split into the negative and the nonnegative side by
    :func:`nonneg_masks`.  A block whose samples and endpoint bases are real
    (:func:`_real_blocks`) is built in float64.
    """
    path = prob.path
    model, parts = path.model, path.spectra
    real = _real_blocks(path)
    nodes = _grid(prob, real)
    h = nodes[1] - nodes[0]
    if prob.scheme == "forward-upwind":
        points = np.clip(0.5 * (nodes[:-1] + nodes[1:]), 0.0, 1.0)
    else:
        points = np.clip(nodes, 0.0, 1.0)
    distinct, where = np.unique(points, return_inverse=True)
    values = path.eval(distinct)
    for sl, (_, v), mask, is_real in zip(model.block_slices, parts,
                                         nonneg_masks(parts), real):
        dm = values[:, sl, sl][where]
        if prob.scheme == "implicit-midpoint":
            dm = 0.5 * (dm[:-1] + dm[1:])
        (v0, v1), (m0, m1) = v[[0, -1]], mask[[0, -1]]
        if is_real:
            dm, v0, v1 = dm.real, v0.real, v1.real
        yield dm, h, 1.0, v0[:, ~m0], v1[:, m1]
        yield dm, h, -1.0, v0[:, m0], v1[:, ~m1]


def _chain(dm, h, sign, q_first, q_last):
    """Off-diagonal of the Golub-Kahan tridiagonal of a 1-dimensional
    block's (bidiagonal) matrix: |left_j| and |right_j| interleaved, the
    first entry through ``q_first``, the last through ``q_last``, each
    dropped where its basis has no column.  The singular values with both
    signs, and |rows - cols| zeros, are the eigenvalues of the zero-diagonal
    tridiagonal with this off-diagonal (Golub and Kahan, SIAM J. Numer.
    Anal. B 2, 1965); a zero entry splits the chain.
    """
    left, right = _couplings(dm, h, sign)
    inner = np.stack([left.ravel(), right.ravel()], axis=1).ravel()[1:-1]
    return np.abs(np.concatenate(
        [(left[0] @ q_first).ravel(), inner, (right[-1] @ q_last).ravel()]))


def _count_below(chain_sq, x):
    """Eigenvalues below x > 0 of the zero-diagonal tridiagonal whose squared
    off-diagonal is ``chain_sq`` (entries at most 1): the negative pivots of
    its LDL* shifted by -x.  A pivot smaller than the smallest normal number
    becomes minus that number, as in LAPACK's bisection (dlaebz)."""
    pivmin = np.finfo(float).tiny
    q, count = -max(x, pivmin), 1
    for e2 in chain_sq:
        q = -x - e2 / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0
    return count


def _kernel_dim(stencil, theta):
    """Kernel dimension of a stencil's matrix, with a gap check.

    Singular values below cut = theta * sigma_max count as kernel; one in
    [cut / 10, 10 cut) raises :class:`NumericError` (assembled blocks are
    never empty, and their difference stencils make sigma_max positive).  A
    route gives a bracket lo <= sigma_max <= hi and kernel(x), the kernel
    dimension if the cut were x.  Equal counts at theta lo / 10 and 10 theta
    hi leave no singular value in a window that contains the dense one: the
    kernel is the dense decision.  Unequal ones bisect [lo, hi] (sigma_max <
    x exactly when kernel(x) is every column) until the edge counts agree,
    or raise, with the bracket as partial, once it has shrunk to rounding.

    A 1-dimensional block fills no matrix: lo is the largest row 2-norm of
    the Golub-Kahan tridiagonal T of its :func:`_chain`, hi Gershgorin's
    bound, and kernel(x) a Sturm count on T, to high relative accuracy
    (Demmel and Kahan, SIAM J. Sci. Stat. Comput. 11, 1990).  A larger block
    (an unpivoted block LDL* has no such guarantee) is filled for an SVD:
    lo = hi = sigma_max, and the matrix is dropped when the SVD returns.
    """
    k, d, _ = stencil[0].shape
    rows, cols = k * d, stencil[3].shape[1] + (k - 1) * d + stencil[4].shape[1]
    if d == 1:
        chain = _chain(*stencil)
        chain /= (scale := float(chain.max()))  # relative thresholds; no square overflows
        ends = np.concatenate([[0.0], chain, [0.0]])
        lo = float(np.hypot(ends[:-1], ends[1:]).max())
        hi = float((ends[:-1] + ends[1:]).max())
        chain_sq = (chain * chain).tolist()
        # T has max(rows, cols) eigenvalues <= 0, so the kernel
        # cols - min(rows, cols) + #{sigma < x} is the count below x - rows
        kernel = lambda x: _count_below(chain_sq, x) - rows
    else:
        sigma = np.linalg.svd(_fill(*stencil), compute_uv=False)
        lo = hi = float(sigma[0])
        scale, kernel = 1.0, lambda x: cols - int(np.sum(sigma >= x))
    below, above = kernel(theta * lo / 10.0), kernel(10.0 * theta * hi)
    while below != above:
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            raise NumericError(f"singular-value gap ambiguity: {above - below} values "
                               f"near the threshold {theta * hi * scale:.3e}; "
                               "refine the grid", partial=(lo * scale, hi * scale))
        mid = 0.5 * (lo + hi)
        if kernel(mid) == cols:
            hi, above = mid, kernel(10.0 * theta * mid)
        else:
            lo, below = mid, kernel(theta * mid / 10.0)
    return below


def aps_index(prob):
    """Trace-weighted index of the suspension operator.

    Weighted kernel dimension of A minus that of A_adj, both detected by
    singular values below ``kernel_threshold`` times the largest one, and
    snapped to the weight lattice as the engine values are.  Each block's
    A_b and A_adj_b are counted one at a time, in that order.
    """
    theta = prob.kernel_threshold
    dims = [_kernel_dim(stencil, theta) for stencil in _block_matrices(prob)]
    model = prob.path.model
    return model.snap(model.weighted_sum(
        [k - c for k, c in zip(dims[::2], dims[1::2])]))


# ---------------------------------------------------------------------------
# half-line inverse

def _exp_moments(mu, h):
    """E1 = int_0^h exp(-mu t) dt and E2 = int_0^h t exp(-mu t) dt, mu > 0."""
    x = mu * h
    e1 = -math.expm1(-x) / mu
    if x < 1e-3:  # the closed form of E2 cancels; its series does not
        return e1, h * h * (0.5 - x / 3.0 + x * x / 8.0 - x ** 3 / 30.0)
    return e1, (e1 - h * math.exp(-x)) / mu


def halfline_aps_apply_inverse(d0, f, length, grid_size):
    """Apply the half-line inverse of d/dx + D_0 with the boundary condition
    that the nonnegative spectral part vanishes at x = 0.

    ``f`` holds samples of the right-hand side on the uniform grid over
    [0, length] (shape (grid_size + 1, dim) or (grid_size + 1,) for scalar
    models) and is treated as piecewise linear, for which the exponential
    cell integrals are evaluated in closed form.  Decaying modes integrate
    forward from g(0) = 0; growing modes integrate backward from
    g(length) = 0, which selects the decaying solution branch.
    """
    if not isinstance(d0, BlockHermitian):
        raise ValidationError("halfline inverse expects a BlockHermitian")
    if not (0 < length < math.inf and grid_size >= 1):
        raise ValidationError("halfline inverse needs length > 0 and grid_size >= 1, "
                              "with a finite length")
    dec = eigh(d0)
    if dec.kernel_mask().any():
        raise PreconditionError("half-line inverse needs an invertible operator")
    n = d0.model.dim
    f = np.asarray(f, dtype=complex)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    if f.shape != (grid_size + 1, n):
        raise ValidationError(
            f"rhs shape {f.shape} does not match grid ({grid_size + 1}, {n})")
    h = float(length) / grid_size
    g = np.zeros_like(f)
    for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
        # a growing mode is a decaying one in reversed x with right-hand side -f
        fk = f @ np.conj(vec) if lam > 0 else -(f @ np.conj(vec))[::-1]
        e1, e2 = _exp_moments(abs(lam), h)
        a_coef = e2 / h
        b_coef = e1 - e2 / h
        decay = math.exp(-abs(lam) * h)
        gk = np.zeros(grid_size + 1, dtype=complex)
        for i in range(grid_size):
            gk[i + 1] = decay * gk[i] + a_coef * fk[i] + b_coef * fk[i + 1]
        g += np.outer(gk if lam > 0 else gk[::-1], vec)
    return g[:, 0] if squeeze else g


def halfline_residual(d0, f, g, length):
    """Relative forward-difference residual of (d/dx + D_0) g - f."""
    f = np.atleast_2d(np.asarray(f, dtype=complex).T).T
    g = np.atleast_2d(np.asarray(g, dtype=complex).T).T
    grid = f.shape[0] - 1
    h = float(length) / grid
    dg = (g[1:] - g[:-1]) / h
    res = dg + g[:-1] @ d0.mat.T - f[:-1]
    return float(np.linalg.norm(res) / max(np.linalg.norm(f), 1e-300))


# ---------------------------------------------------------------------------
# perturbation / truncation report

def perturbation_truncation_check(d, k_path, r_start):
    """Spectral-truncation sweep for relatively bounded perturbations.

    For R over at most 8 doublings starting at ``r_start``, reports the
    smallest singular value of  D + (1-u) K_1 + u P_R K_1 P_R  on 21 points
    of u (P_R the spectral projection of D onto [-R, R]); R passes when all
    of them exceed 1e-8.  For each passing R the truncated path
    D + P_R K_u P_R is run through both the crossing engine and the index on
    the cylinder of length 2 with 64 intervals, which must agree.
    """
    smin_floor = 1e-8
    if not isinstance(d, BlockHermitian):
        raise ValidationError("perturbation check expects a BlockHermitian")
    if not 0 < r_start < math.inf:
        raise ValidationError("r_start must be positive and finite")
    model = d.model
    dec = eigh(d)
    if np.min(np.abs(dec.eigenvalues)) <= smin_floor:
        raise PreconditionError("base operator must be invertible")
    k1 = k_path.eval(1.0)
    k0 = k_path.eval(0.0)
    if np.abs(k0.mat).max() > 1e-10 * max(1.0, np.abs(k1.mat).max()):
        raise ValidationError("perturbation path must start at 0")
    end = BlockHermitian(model, d.mat + k1.mat)
    if np.min(np.abs(eigh(end).eigenvalues)) <= smin_floor:
        raise PreconditionError("D + K_1 must be invertible")

    norm_d = dec.op_norm
    us = np.linspace(0.0, 1.0, 21)
    sweep = []
    minimal_r = None
    r = float(r_start)
    for _ in range(9):
        proj = spectral_projection(dec, Interval.symmetric(r)).mat
        trunc_k1 = proj @ k1.mat @ proj
        t = us[:, None, None]
        smin = float(np.min(np.abs(np.linalg.eigvalsh(
            d.mat + (1.0 - t) * k1.mat + t * trunc_k1))))
        passes = smin > smin_floor
        entry = {"R": r, "min_singular_value": smin, "passes": passes}
        if passes:
            samples = [(float(u), BlockHermitian(model, d.mat + proj @ k_path.eval(float(u)).mat @ proj))
                       for u in k_path.us]
            trunc_path = OperatorPath(model, samples, interpolation="linear")
            flow = sf_crossing(trunc_path)
            prob = SuspensionProblem(path=trunc_path, grid_size=64,
                                     geometry="cylinder", cylinder_length=2.0)
            index = aps_index(prob)
            entry["sf_crossing"] = flow.value
            entry["aps_index"] = index
            entry["index_matches_flow"] = bool(abs(index - flow.value) < 1e-9)
            if minimal_r is None:
                minimal_r = r
        sweep.append(entry)
        if r >= norm_d and passes:
            break
        r *= 2.0
    return {"sweep": sweep, "minimal_passing_R": minimal_r,
            "operator_norm": norm_d}
