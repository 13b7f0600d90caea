"""Discretized suspension operator d/du + D_u and its trace-weighted index.

The operator acts on grid functions over the path parameter; boundary
conditions of Atiyah-Patodi-Singer type remove the nonnegative spectral
components at the left end and the negative ones at the right end (the
formal adjoint carries the complementary conditions).  Kernels are detected
from singular values, per ambient block, and weighted by the block traces.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, PreconditionError, ValidationError
from .path import OperatorPath, smoothstep
from .tracemodel import (BlockHermitian, Interval, WeightedBlockModel, eigh,
                         spectral_projection)

__all__ = ["SuspensionProblem", "assemble", "aps_index",
           "halfline_aps_apply_inverse", "halfline_residual",
           "perturbation_truncation_check"]

SCHEMES = ("forward-upwind", "implicit-midpoint")
GEOMETRIES = ("interval-APS", "cylinder")


@dataclass(frozen=True)
class SuspensionProblem:
    """Grid data for d/du + D_u with APS boundary conditions.

    ``grid_size`` is the number of intervals on [0, 1]; the cylinder
    geometry extends the path constantly by ``cylinder_length`` on both
    sides (default 4 / smallest endpoint gap) and imposes the boundary
    conditions at the truncated ends.
    """

    path: OperatorPath
    grid_size: int = 200
    scheme: str = "forward-upwind"
    geometry: str = "interval-APS"
    cylinder_length: float = None
    kernel_threshold: float = 1e-7
    endpoint_regularize: bool = False

    def __post_init__(self):
        if not isinstance(self.path.model, WeightedBlockModel):
            raise ValidationError("suspension problems need a weighted block model")
        if self.grid_size < 16:
            raise ValidationError("grid_size must be at least 16")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.geometry not in GEOMETRIES:
            raise ValidationError(f"unknown geometry {self.geometry!r}")
        if not self.kernel_threshold > 0:
            raise ValidationError("kernel_threshold must be positive")
        if self.geometry == "interval-APS" and not self.path.endpoint_flat:
            raise ValidationError("interval-APS requires an endpoint-flat path")
        if self.geometry == "cylinder":
            gap = _endpoint_gap(self.effective_path())
            if gap <= 1e-8:
                raise ValidationError(
                    f"cylinder geometry needs invertible endpoints (gap {gap:.3e})")

    def effective_path(self):
        if self.endpoint_regularize:
            return _regularize_endpoints(self.path)
        return self.path


def _endpoint_gap(path):
    """Smallest eigenvalue modulus of the two endpoint operators."""
    return min(float(np.min(np.abs(eigh(path.eval(u)).eigenvalues)))
               for u in (0.0, 1.0))


def _regularize_endpoints(path):
    """Shift the unit-window spectral parts of the endpoint operators.

    Adds phi(u) (1_[0,1](D_0) - 1_[-1,0)(D_0)) + (1 - phi(u)) (same for D_1)
    with a ramp phi supported away from u = 1 and 1 - phi away from u = 0;
    the endpoints become invertible while their nonnegative projections are
    unchanged.
    """
    model = path.model
    dec0 = eigh(path.eval(0.0))
    dec1 = eigh(path.eval(1.0))

    def shift_op(dec):
        pos = spectral_projection(dec, Interval(0.0, 1.0)).mat
        neg = spectral_projection(dec, Interval(-1.0, 0.0, closed_hi=False)).mat
        return pos - neg

    s0 = shift_op(dec0)
    s1 = shift_op(dec1)

    def phi(u):
        return 1.0 - smoothstep((u - 0.25) * 2.0)

    samples = []
    for j, u in enumerate(path.us):
        mat = path.sample(j).mat + phi(u) * s0 + (1.0 - phi(u)) * s1
        samples.append((float(u), BlockHermitian(model, mat)))
    return OperatorPath(model, samples, interpolation=path.interpolation,
                        endpoint_flat=path.endpoint_flat)


def _grid(prob, path):
    """Node parameter values; cylinder nodes run beyond [0, 1]."""
    m = prob.grid_size
    if prob.geometry == "interval-APS":
        return np.linspace(0.0, 1.0, m + 1)
    if prob.cylinder_length is not None:
        length = float(prob.cylinder_length)
    else:
        length = 4.0 / _endpoint_gap(path)
    steps = max(1, math.ceil(length * m))
    return np.arange(-steps, m + steps + 1) / m


def _eval_clamped(path, v):
    return path.eval(min(max(float(v), 0.0), 1.0))


def _boundary_basis(dec, block_index, block_slice, side):
    """Orthonormal basis of the unconstrained components at a boundary node.

    ``side`` is "neg" (eigenvalues below the kernel cluster) or "nonneg".
    """
    nonneg = dec.nonneg_mask()
    mask = (dec.block_index == block_index) & (nonneg if side == "nonneg" else ~nonneg)
    return dec.eigenvectors[block_slice, :][:, mask]


def _assemble_block(prob, path, block_index, kind):
    """Rectangular matrix of the suspension operator restricted to one block.

    ``kind`` is "direct" (d/du + D, APS conditions) or "adjoint"
    (-d/du + D, complementary conditions).
    """
    model = path.model
    sl = model.block_slices[block_index]
    d = sl.stop - sl.start
    nodes = _grid(prob, path)
    k = len(nodes) - 1
    h = nodes[1] - nodes[0]

    mids = []
    for j in range(k):
        if prob.scheme == "forward-upwind":
            mids.append(_eval_clamped(path, 0.5 * (nodes[j] + nodes[j + 1])).mat[sl, sl])
        else:  # implicit-midpoint: node-pair averaging of D
            a = _eval_clamped(path, nodes[j]).mat[sl, sl]
            b = _eval_clamped(path, nodes[j + 1]).mat[sl, sl]
            mids.append(0.5 * (a + b))

    dec_first = eigh(_eval_clamped(path, nodes[0]))
    dec_last = eigh(_eval_clamped(path, nodes[-1]))
    if kind == "direct":
        q_first = _boundary_basis(dec_first, block_index, sl, "neg")
        q_last = _boundary_basis(dec_last, block_index, sl, "nonneg")
        sign = 1.0
    else:
        q_first = _boundary_basis(dec_first, block_index, sl, "nonneg")
        q_last = _boundary_basis(dec_last, block_index, sl, "neg")
        sign = -1.0

    k_first = q_first.shape[1]
    k_last = q_last.shape[1]
    cols = k_first + (k - 1) * d + k_last
    mat = np.zeros((k * d, cols), dtype=complex)
    eye = np.eye(d)

    def col_block(node):
        """Column range and basis for a node (identity for interior nodes)."""
        if node == 0:
            return 0, q_first
        if node == k:
            return k_first + (k - 1) * d, q_last
        return k_first + (node - 1) * d, eye

    for j in range(k):
        dm = mids[j]
        left = sign * (-eye / h) + 0.5 * dm
        right = sign * (eye / h) + 0.5 * dm
        for node, stencil in ((j, left), (j + 1, right)):
            start, basis = col_block(node)
            mat[j * d:(j + 1) * d, start:start + basis.shape[1]] += stencil @ basis
    return mat


def assemble(prob):
    """Assembled matrices (A, A_adj) over all blocks.

    Rows are interval values (grid-major within each block), columns are the
    unconstrained node components; blocks are stacked block-diagonally in
    the model's block order.
    """
    path = prob.effective_path()
    blocks_a = [_assemble_block(prob, path, b, "direct")
                for b in range(len(path.model.blocks))]
    blocks_adj = [_assemble_block(prob, path, b, "adjoint")
                  for b in range(len(path.model.blocks))]

    def block_diag(mats):
        rows = sum(m.shape[0] for m in mats)
        cols = sum(m.shape[1] for m in mats)
        out = np.zeros((rows, cols), dtype=complex)
        r = c = 0
        for m in mats:
            out[r:r + m.shape[0], c:c + m.shape[1]] = m
            r += m.shape[0]
            c += m.shape[1]
        return out

    return block_diag(blocks_a), block_diag(blocks_adj)


def _kernel_dim(mat, theta):
    """Kernel dimension by singular-value thresholding with a gap check."""
    rows, cols = mat.shape
    if cols == 0:
        return 0
    if rows == 0:
        return cols
    sigma = np.linalg.svd(mat, compute_uv=False)
    smax = float(sigma[0]) if sigma.size else 0.0
    if smax == 0.0:
        return cols
    cut = theta * smax
    in_window = (sigma >= cut / 10.0) & (sigma <= cut * 10.0)
    if np.any(in_window):
        raise NumericError(
            "singular-value gap ambiguity: values "
            f"{sigma[in_window][:4]} near the threshold {cut:.3e}; "
            "refine the grid", partial=sigma)
    rank = int(np.sum(sigma >= cut))
    return cols - rank


def aps_index(prob, check_stability=False):
    """Trace-weighted index of the suspension operator.

    Weighted kernel dimension of A minus that of A_adj, both detected by
    singular values below ``kernel_threshold`` times the largest one, and
    snapped to the weight lattice as the engine values are.  With
    ``check_stability`` the computation is repeated on the doubled grid and
    the two indices must agree.
    """
    path = prob.effective_path()
    total = 0.0
    for b, (nb, w) in enumerate(path.model.blocks):
        a = _assemble_block(prob, path, b, "direct")
        adj = _assemble_block(prob, path, b, "adjoint")
        ker = _kernel_dim(a, prob.kernel_threshold)
        coker = _kernel_dim(adj, prob.kernel_threshold)
        total += w * (ker - coker)
    total = path.model.snap(total)
    if check_stability:
        again = aps_index(replace(prob, grid_size=2 * prob.grid_size))
        if abs(again - total) > 1e-9:
            raise NumericError(
                f"index unstable under grid doubling: {total} vs {again}",
                partial=(total, again))
    return total


# ---------------------------------------------------------------------------
# half-line inverse

def _exp_moments(mu, h):
    """E1 = int_0^h exp(-mu t) dt and E2 = int_0^h t exp(-mu t) dt, mu > 0."""
    x = mu * h
    if x < 1e-5:
        e1 = h * (1.0 - x / 2.0 + x * x / 6.0)
        e2 = h * h * (0.5 - x / 3.0 + x * x / 8.0)
    else:
        q = math.exp(-x)
        e1 = -math.expm1(-x) / mu
        e2 = (1.0 - q * (1.0 + x)) / (mu * mu)
    return e1, e2


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
    dec = eigh(d0)
    if dec.kernel_mask().any():
        raise PreconditionError("half-line inverse needs an invertible operator")
    n = d0.model.dim
    f = np.asarray(f, dtype=complex)
    squeeze = False
    if f.ndim == 1:
        f = f[:, None]
        squeeze = True
    if f.shape != (grid_size + 1, n):
        raise ValidationError(
            f"rhs shape {f.shape} does not match grid ({grid_size + 1}, {n})")
    h = float(length) / grid_size
    g = np.zeros_like(f)
    for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
        fk = f @ np.conj(vec)
        gk = np.zeros(grid_size + 1, dtype=complex)
        if lam > 0:
            e1, e2 = _exp_moments(lam, h)
            a_coef = e2 / h
            b_coef = e1 - e2 / h
            decay = math.exp(-lam * h)
            for i in range(grid_size):
                gk[i + 1] = decay * gk[i] + a_coef * fk[i] + b_coef * fk[i + 1]
        else:
            mu = -lam
            e1, e2 = _exp_moments(mu, h)
            c_coef = e1 - e2 / h
            d_coef = e2 / h
            decay = math.exp(-mu * h)
            for i in range(grid_size - 1, -1, -1):
                gk[i] = decay * gk[i + 1] - (c_coef * fk[i] + d_coef * fk[i + 1])
        g += np.outer(gk, vec)
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

def perturbation_truncation_check(d, k_path, r_start, u_points=21,
                                  max_doublings=8, aps_grid=64,
                                  cylinder_length=2.0, smin_floor=1e-8):
    """Spectral-truncation sweep for relatively bounded perturbations.

    For R over a doubling sweep starting at ``r_start``, reports the
    smallest singular value of  D + (1-u) K_1 + u P_R K_1 P_R  on a u-grid
    (P_R the spectral projection of D onto [-R, R]); R passes when all of
    them exceed ``smin_floor``.  For each passing R the truncated path
    D + P_R K_u P_R is run through both the crossing engine and the
    cylinder-geometry index, which must agree.
    """
    from .engines import sf_crossing

    if not isinstance(d, BlockHermitian):
        raise ValidationError("perturbation check expects a BlockHermitian")
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
    us = np.linspace(0.0, 1.0, u_points)
    sweep = []
    minimal_r = None
    r = float(r_start)
    for _ in range(max_doublings + 1):
        proj = spectral_projection(dec, Interval.symmetric(r)).mat
        trunc_k1 = proj @ k1.mat @ proj
        smins = []
        for u in us:
            e_u = d.mat + (1.0 - u) * k1.mat + u * trunc_k1
            smins.append(float(np.min(np.abs(np.linalg.eigvalsh(e_u)))))
        passes = min(smins) > smin_floor
        entry = {"R": r, "min_singular_value": min(smins), "passes": passes}
        if passes:
            samples = [(float(u), BlockHermitian(model, d.mat + proj @ k_path.eval(float(u)).mat @ proj))
                       for u in k_path.us]
            trunc_path = OperatorPath(model, samples, interpolation="linear")
            flow = sf_crossing(trunc_path)
            prob = SuspensionProblem(path=trunc_path, grid_size=aps_grid,
                                     geometry="cylinder",
                                     cylinder_length=cylinder_length)
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
