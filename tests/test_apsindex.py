"""Suspension-operator assembly, index, half-line inverse, truncation sweep."""

import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

import sfcalc
from sfcalc import apsindex
from sfcalc.apsindex import (SCHEMES, SuspensionProblem, _block_matrices,
                             _chain, _exp_moments, _fill, _kernel_dim, aps_index,
                             halfline_aps_apply_inverse, halfline_residual,
                             perturbation_truncation_check)
from sfcalc.engines import sf_crossing
from sfcalc.errors import NumericError, PreconditionError, ValidationError
from sfcalc.generators import (involution_path, random_block_model,
                               random_path, random_unitary_path, rng_from_seed,
                               scalar_linear_path, single_crossing_path)
from sfcalc.path import OperatorPath, concatenate, conjugate, flatten_endpoints
from sfcalc.tracemodel import (AffineSymbol, BlockHermitian, FrequencyModel,
                               WeightedBlockModel, eigh)


def constant_path(value, model=None):
    model = model or WeightedBlockModel([(1, 1.0)])
    us = np.linspace(0.0, 1.0, 9)
    samples = [(float(u), BlockHermitian(model, value * np.eye(model.dim)))
               for u in us]
    return OperatorPath(model, samples)


def dense_matrices(prob):
    """The dense matrices of the stencils _block_matrices() yields."""
    return [_fill(*stencil) for stencil in _block_matrices(prob)]


# ---------------------------------------------------------------------------
# assembly

def test_assemble_zero_path_dimensions_and_kernels():
    # 0 counts as nonnegative, so the condition f(0) = 0 applies at the left
    prob = SuspensionProblem(path=constant_path(0.0), grid_size=32)
    a, adj = dense_matrices(prob)
    assert a.shape == (32, 32)
    assert adj.shape == (32, 32)
    assert np.linalg.svd(a, compute_uv=False).min() > 1e-3
    assert np.linalg.svd(adj, compute_uv=False).min() > 1e-3


def test_assemble_positive_constant_no_kernel():
    prob = SuspensionProblem(path=constant_path(0.9), grid_size=32)
    a, _ = dense_matrices(prob)
    assert a.shape == (32, 32)
    assert np.linalg.svd(a, compute_uv=False).min() > 1e-3


def test_assemble_single_crossing_kernel_matches_ode_oracle():
    # f' + (2u-1) f = 0 with free boundary values: f = exp(-(u^2-u))
    path = flatten_endpoints(single_crossing_path(), margin=0.15)
    prob = SuspensionProblem(path=path, grid_size=200)
    a, adj = dense_matrices(prob)
    # one more column than rows: the kernel is the structural rank deficit
    assert a.shape[1] - a.shape[0] == 1
    u_mat, sigma, vt = np.linalg.svd(a)
    assert sigma.min() > 1e-3  # full row rank, kernel exactly 1-dimensional
    assert np.linalg.svd(adj, compute_uv=False).min() > 1e-3

    # ODE oracle: the kernel of f' + D(t) f = 0 is exp(-int_0^t D), with D
    # the path coefficient; integrate it independently by fine trapezoid
    null = vt[-1].conj()
    fine = np.linspace(0.0, 1.0, 4001)
    coeff = np.array([path.eval(float(t)).mat[0, 0].real for t in fine])
    anti = np.concatenate([[0.0], np.cumsum(0.5 * (coeff[1:] + coeff[:-1])
                                            * np.diff(fine))])
    nodes = np.linspace(0.0, 1.0, 201)
    oracle = np.exp(-np.interp(nodes, fine, anti))
    overlap = abs(null @ oracle) / (np.linalg.norm(null) * np.linalg.norm(oracle))
    assert overlap > 1.0 - 1e-4


def _assemble_by_loop(prob):
    """Reference for _block_matrices(): evaluate the path per interval and
    fill each node's stencil by one product, node by node.  Returns the list
    [A_0, A_adj_0, A_1, A_adj_1, ...]."""
    path, m = prob.path, prob.grid_size
    if prob.geometry == "interval-APS":
        nodes = np.linspace(0.0, 1.0, m + 1)
    else:
        steps = max(1, math.ceil(prob.cylinder_length * m))
        nodes = np.arange(-steps, m + steps + 1) / m
    k, h = len(nodes) - 1, nodes[1] - nodes[0]

    def d_at(v):
        return path.eval(min(max(float(v), 0.0), 1.0)).mat

    if prob.scheme == "forward-upwind":
        mids = [d_at(0.5 * (nodes[j] + nodes[j + 1])) for j in range(k)]
    else:
        mids = [0.5 * (d_at(nodes[j]) + d_at(nodes[j + 1])) for j in range(k)]
    decs = [eigh(path.eval(0.0)), eigh(path.eval(1.0))]
    out = []
    for b, sl in enumerate(path.model.block_slices):
        d = sl.stop - sl.start
        eye = np.eye(d)
        sides = []
        for dec in decs:
            own = dec.block_index == b
            nonneg = dec.nonneg_mask()[own]
            vecs = dec.eigenvectors[sl][:, own]
            sides.append((vecs[:, ~nonneg], vecs[:, nonneg]))
        (neg0, nonneg0), (neg1, nonneg1) = sides
        for sign, q_first, q_last in ((1.0, neg0, nonneg1), (-1.0, nonneg0, neg1)):
            bases = [q_first] + [eye] * (k - 1) + [q_last]
            starts = np.concatenate([[0], np.cumsum([q.shape[1] for q in bases])])
            mat = np.zeros((k * d, starts[-1]), dtype=complex)
            for j in range(k):
                for node, step in ((j, -eye / h), (j + 1, eye / h)):
                    stencil = sign * step + 0.5 * mids[j][sl, sl]
                    mat[j * d:(j + 1) * d, starts[node]:starts[node + 1]] += \
                        stencil @ bases[node]
            out.append(mat)
    return out


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("geometry", ["interval-APS", "cylinder"])
def test_assemble_matches_per_node_loop(geometry, scheme):
    rng = rng_from_seed(6700)
    model = WeightedBlockModel([(2, 1.0), (3, 0.5)])
    path = random_path(rng, model, num_samples=7, endpoint_flat=True)
    prob = SuspensionProblem(path=path, grid_size=24, scheme=scheme,
                             geometry=geometry, cylinder_length=0.5)
    got_all, expected_all = dense_matrices(prob), _assemble_by_loop(prob)
    assert len(got_all) == len(expected_all) == 4
    for got, expected in zip(got_all, expected_all):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_interval_requires_flat_path():
    with pytest.raises(ValidationError):
        SuspensionProblem(path=single_crossing_path(), grid_size=32)


def test_interval_accepts_a_flat_path_conjugated_by_one_unitary():
    # conjugation keeps equal samples equal, so the path stays endpoint-flat
    rng = rng_from_seed(6400)
    model = WeightedBlockModel([(2, 1.0), (3, 0.5)])
    path = random_path(rng, model, num_samples=7, endpoint_flat=True)
    rotated = conjugate(path, random_unitary_path(rng, model, 3)[1])
    assert rotated.endpoint_flat
    index = aps_index(SuspensionProblem(path=path, grid_size=64))
    assert aps_index(SuspensionProblem(path=rotated, grid_size=64)) == index
    assert index == sf_crossing(path).value


def test_cylinder_requires_invertible_endpoints():
    with pytest.raises(ValidationError):
        SuspensionProblem(path=scalar_linear_path(0.0, 1.0), grid_size=32,
                          geometry="cylinder")


# ---------------------------------------------------------------------------
# index values

def test_index_single_crossing_interval():
    path = flatten_endpoints(single_crossing_path(), margin=0.15)
    assert aps_index(SuspensionProblem(path=path, grid_size=200)) == 1.0


def test_index_single_crossing_cylinder():
    prob = SuspensionProblem(path=single_crossing_path(), grid_size=200,
                             geometry="cylinder")
    assert aps_index(prob) == 1.0


def test_index_constant_invertible():
    assert aps_index(SuspensionProblem(path=constant_path(-0.8), grid_size=48)) == 0.0


def test_index_involution_normalization():
    model = WeightedBlockModel([(3, 1.0)])
    path, expected = involution_path(model, [2], rng=rng_from_seed(6))
    flat = flatten_endpoints(path, margin=0.12, num_samples=41)
    assert expected == 2.0
    assert aps_index(SuspensionProblem(path=flat, grid_size=200)) == 2.0


def test_index_stability_gate():
    path = flatten_endpoints(single_crossing_path(), margin=0.15)
    prob = SuspensionProblem(path=path, grid_size=64)
    assert aps_index(prob) == 1.0
    assert aps_index(replace(prob, grid_size=128)) == 1.0


def test_scheme_agreement():
    for seed in range(4):
        rng = rng_from_seed(6200 + seed)
        model = random_block_model(rng, max_blocks=2, max_block_dim=3)
        path = random_path(rng, model, num_samples=7, endpoint_flat=True)
        values = {scheme: aps_index(SuspensionProblem(
            path=path, grid_size=200, scheme=scheme))
            for scheme in ("forward-upwind", "implicit-midpoint")}
        assert values["forward-upwind"] == values["implicit-midpoint"]


def test_cylinder_interval_agreement():
    for seed in range(4):
        rng = rng_from_seed(6300 + seed)
        model = random_block_model(rng, max_blocks=2, max_block_dim=3)
        path = random_path(rng, model, num_samples=7, endpoint_flat=True)
        interval = aps_index(SuspensionProblem(path=path, grid_size=128))
        cylinder = aps_index(SuspensionProblem(
            path=path, grid_size=128, geometry="cylinder", cylinder_length=2.0))
        assert interval == cylinder


def test_cut_additivity():
    # invertible splice: index adds over concatenation
    for seed in range(4):
        rng = rng_from_seed(6400 + seed)
        model = random_block_model(rng, max_blocks=2, max_block_dim=2)
        a = random_path(rng, model, num_samples=5)
        b_raw = random_path(rng, model, num_samples=5)
        offset = a.eval(1.0).mat - b_raw.eval(0.0).mat
        b = OperatorPath(model, [
            (float(u), BlockHermitian(model, b_raw.sample(j).mat + offset))
            for j, u in enumerate(b_raw.us)])
        if np.min(np.abs(eigh(a.eval(1.0)).eigenvalues)) <= 1e-6:
            continue
        def idx(p):
            return aps_index(SuspensionProblem(
                path=flatten_endpoints(p, num_samples=31), grid_size=128))
        assert idx(concatenate(a, b)) == idx(a) + idx(b)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("interpolation", ["linear", "cubic"])
def test_index_equals_flow_quick(interpolation, scheme):
    for seed in range(6):
        rng = rng_from_seed(6500 + seed)
        model = random_block_model(rng, max_blocks=2, max_block_dim=3)
        raw = random_path(rng, model, num_samples=7)
        samples = [(u, raw.sample(j)) for j, u in enumerate(raw.us)]
        path = flatten_endpoints(
            OperatorPath(model, samples, interpolation=interpolation),
            margin=0.15, num_samples=25)
        assert aps_index(SuspensionProblem(path=path, grid_size=200, scheme=scheme)) \
            == sf_crossing(path).value


def test_index_equals_flow_with_kernel_at_start():
    # D_0 = 0: the kernel counts as nonnegative and the left boundary
    # condition removes it
    path = flatten_endpoints(scalar_linear_path(0.0, 1.0), margin=0.15)
    assert aps_index(SuspensionProblem(path=path, grid_size=128)) \
        == sf_crossing(path).value


def kernel_and_cokernel_path():
    # diag(2u - 1, 1 - 2u): one eigenvalue crosses upward, one downward, in
    # one real block
    model = WeightedBlockModel([(2, 1.0)])
    return flatten_endpoints(OperatorPath(model, [
        (u, BlockHermitian(model, np.diag([2 * u - 1, 1 - 2 * u]))) for u in (0.0, 1.0)]))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("geometry, length", [("interval-APS", None), ("cylinder", 0.5)])
def test_block_with_a_kernel_and_a_cokernel(scheme, geometry, length):
    # A and A_adj are square with a one-dimensional kernel each (singular
    # value about 1e-17 sigma_max, the next at 1.7e-2 or more); every route
    # to the kernel count has to resolve this block
    path = kernel_and_cokernel_path()
    prob = SuspensionProblem(path=path, grid_size=64, scheme=scheme,
                             geometry=geometry, cylinder_length=length)
    stencil_a, stencil_adj = _block_matrices(prob)
    a, adj = _fill(*stencil_a), _fill(*stencil_adj)
    assert a.shape[0] == a.shape[1] and adj.shape[0] == adj.shape[1]
    assert _kernel_dim(stencil_a, prob.kernel_threshold) == 1
    assert _kernel_dim(stencil_adj, prob.kernel_threshold) == 1
    assert aps_index(prob) == sf_crossing(path).value == 0.0


# ---------------------------------------------------------------------------
# real blocks: built in float64, counted as the complex build would be

REAL, COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)


def single_crossing_cylinder(grid_size=64, **kw):
    return SuspensionProblem(path=single_crossing_path(), grid_size=grid_size,
                             geometry="cylinder", **kw)


def flat_scalar_paths():
    ends = (-1.0, -0.5, 0.0, 0.5, 1.0)
    return [flatten_endpoints(scalar_linear_path(a, b), margin=0.15)
            for a in ends for b in ends]


def involution_blocks_path():
    # the bundled involution_norm scenario: two 1-dimensional blocks
    model = WeightedBlockModel([(1, 1.0), (1, 0.5)])
    path, _ = involution_path(model, [1, 1], rng=rng_from_seed(414))
    return flatten_endpoints(path)


def real_problems():
    """Problems whose every block is 1-dimensional or real diagonal."""
    single = flatten_endpoints(single_crossing_path(), margin=0.15)
    return ([SuspensionProblem(path=single, grid_size=200),
             single_crossing_cylinder(),
             SuspensionProblem(path=kernel_and_cokernel_path(), grid_size=64),
             SuspensionProblem(path=kernel_and_cokernel_path(), grid_size=200),
             SuspensionProblem(path=involution_blocks_path(), grid_size=64)]
            + [SuspensionProblem(path=p, grid_size=128) for p in flat_scalar_paths()])


DTYPE_CASES = {
    "single-crossing-cylinder": (single_crossing_cylinder, [REAL] * 2),
    "kernel-and-cokernel": (lambda: SuspensionProblem(
        path=kernel_and_cokernel_path(), grid_size=32), [REAL] * 2),
    "involution": (lambda: SuspensionProblem(
        path=involution_blocks_path(), grid_size=32), [REAL] * 4),
    "real-symmetric-3": (lambda: SuspensionProblem(path=flatten_endpoints(
        involution_path(WeightedBlockModel([(3, 1.0)]), [2])[0]), grid_size=32),
        [REAL] * 2),
    "complex-two-block": (lambda: SuspensionProblem(path=random_path(
        rng_from_seed(6700), WeightedBlockModel([(2, 1.0), (3, 0.5)]),
        num_samples=7, endpoint_flat=True), grid_size=24), [COMPLEX] * 4),
    "one-real-one-complex": (lambda: SuspensionProblem(path=random_path(
        rng_from_seed(6701), WeightedBlockModel([(1, 1.0), (2, 0.5)]),
        num_samples=7, endpoint_flat=True), grid_size=24),
        [REAL, REAL, COMPLEX, COMPLEX]),
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("case", sorted(DTYPE_CASES))
def test_block_matrices_are_real_exactly_when_the_block_data_is(case, scheme):
    build, dtypes = DTYPE_CASES[case]
    prob = replace(build(), scheme=scheme)
    assert [mat.dtype for mat in dense_matrices(prob)] == dtypes


def _dense_kernel_dim(mat, theta, sigma=None):
    """Reference count: every singular value by a dense SVD (or ``sigma``,
    those of ``mat``), thresholded at theta * sigma_max, ambiguous when one
    lies in [cut / 10, 10 cut]."""
    if sigma is None:
        sigma = np.linalg.svd(mat, compute_uv=False)
    cut = theta * float(sigma[0])
    in_window = (sigma >= cut / 10.0) & (sigma <= cut * 10.0)
    if np.any(in_window):
        raise NumericError("singular-value gap ambiguity", partial=sigma)
    return mat.shape[1] - int(np.sum(sigma >= cut))


def _count(mat, theta, kernel_dim=_kernel_dim):
    try:
        return kernel_dim(mat, theta)
    except NumericError:
        return "ambiguous"


def as_complex(stencil):
    """The stencil with its block values and boundary bases made complex."""
    dm, h, sign, q_first, q_last = stencil
    return (dm.astype(complex), h, sign,
            q_first.astype(complex), q_last.astype(complex))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_real_matrices_count_as_their_complex_copies(scheme):
    # the complex copy of a 1-dimensional block is counted by the Sturm
    # route too; the dense reference judges both
    for prob in real_problems():
        prob, theta = replace(prob, scheme=scheme), prob.kernel_threshold
        for stencil in _block_matrices(prob):
            mat = _fill(*stencil)
            assert mat.dtype == REAL
            assert _count(stencil, theta) == _count(as_complex(stencil), theta) \
                == _count(mat, theta, _dense_kernel_dim)


def _bidiagonal_chain(mat):
    """Reference: the Golub-Kahan off-diagonal read back from a dense
    bidiagonal ``mat``, its main diagonal interleaved with the first upper
    one (or with the first lower one, when that holds the nonzeros)."""
    nnz = np.count_nonzero(mat)
    for b in (mat, mat.T):
        main, upper = np.diagonal(b), np.diagonal(b, 1)
        if np.count_nonzero(main) + np.count_nonzero(upper) == nnz:
            chain = np.zeros(sum(mat.shape) - 1)
            chain[:2 * main.size:2] = np.abs(main)
            chain[1:2 * upper.size:2] = np.abs(upper)
            return chain
    return None


@pytest.mark.parametrize("scheme", SCHEMES)
def test_chain_is_the_golub_kahan_off_diagonal_of_the_filled_matrix(scheme):
    # every 1-dimensional block of the real problems, the 25 flat scalar
    # paths among them, and its complex copy; those paths give boundary
    # bases of 0 and 1 columns in all four combinations
    widths = set()
    for prob in real_problems():
        for stencil in _block_matrices(replace(prob, scheme=scheme)):
            if stencil[0].shape[1] != 1:
                continue
            widths.add((stencil[3].shape[1], stencil[4].shape[1]))
            expected = _bidiagonal_chain(_fill(*stencil)).tobytes()
            assert _chain(*stencil).tobytes() == expected
            assert _chain(*as_complex(stencil)).tobytes() == expected
    assert widths == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.fixture
def no_one_dimensional_fill(monkeypatch):
    """Make the library's _fill raise on a 1-dimensional stencil; the tests'
    own ``_fill`` stays the reference."""
    def refuse(*stencil):
        assert stencil[0].shape[1] > 1, "dense fill of a 1-dimensional block"
        return _fill(*stencil)

    monkeypatch.setattr(apsindex, "_fill", refuse)


THETAS = np.geomspace(1e-9, 0.3, 60)


def _sweep(stencils):
    """Route count and dense reference over THETAS for each stencil; the
    set of reference outcomes seen (True for ambiguous)."""
    outcomes = set()
    for stencil in stencils:
        mat = _fill(*stencil)
        sigma = np.linalg.svd(mat, compute_uv=False)
        for theta in THETAS:
            expected = _count(mat, theta, lambda m, t: _dense_kernel_dim(m, t, sigma))
            assert _count(stencil, theta) == expected
            outcomes.add(expected == "ambiguous")
    return outcomes


def test_kernel_dim_equals_the_dense_reference_over_theta(no_one_dimensional_fill):
    # 60 thresholds over the 1-dimensional blocks of the first five real
    # problems (the 2-dimensional ones run the reference's own code): each
    # count equals the reference's, or both find the gap ambiguous, and no
    # matrix is filled
    stencils = [stencil for prob in real_problems()[:5] for scheme in SCHEMES
                if all(n == 1 for n, _ in prob.path.model.blocks)
                for stencil in _block_matrices(replace(prob, scheme=scheme))]
    assert len(stencils) == 16
    assert _sweep(stencils) == {True, False}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("grid_size, length", [(32, 16.0), (16, None)])
def test_kernel_dim_on_a_long_cylinder_and_a_coarse_grid(
        no_one_dimensional_fill, scheme, grid_size, length):
    # the single-crossing cylinder (endpoint gap 1) at L = 16 / gap, 1056
    # intervals at M = 32, and at M = 16 with the default L = 4 / gap
    prob = SuspensionProblem(path=single_crossing_path(), grid_size=grid_size,
                             geometry="cylinder", cylinder_length=length,
                             scheme=scheme)
    assert _sweep(_block_matrices(prob)) == {True, False}


def test_one_dimensional_blocks_need_no_svd(monkeypatch):
    # the cylinder's two 1800 x 1801 and 1800 x 1799 bidiagonal matrices are
    # counted by Sturm sequences alone, and so is a tie at theta = 0.01
    def no_svd(*args, **kwargs):
        raise AssertionError("dense SVD on a 1-dimensional block")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    prob = SuspensionProblem(path=single_crossing_path(), grid_size=200,
                             geometry="cylinder")
    assert aps_index(prob) == 1.0
    with pytest.raises(NumericError, match="gap ambiguity"):
        aps_index(replace(prob, kernel_threshold=0.01))


def test_one_dimensional_blocks_never_fill_a_matrix(no_one_dimensional_fill):
    # a count at the default threshold, and a tie at theta = 0.01 that the
    # same Sturm counts find ambiguous: the bracket of sigma_max has shrunk
    # to rounding and still holds singular values in its window
    prob = SuspensionProblem(path=single_crossing_path(), grid_size=200,
                             geometry="cylinder")
    assert aps_index(prob) == 1.0
    with pytest.raises(NumericError, match=r"gap ambiguity: \d+ values near "
                       r"the threshold") as info:
        aps_index(single_crossing_cylinder(kernel_threshold=0.01))
    lo, hi = info.value.partial
    assert json.loads(json.dumps(info.value.partial)) == [lo, hi]  # a report can write it
    assert 0 < hi - lo <= 4 * np.finfo(float).eps * hi


def _bracket(stencil):
    """The first bracket lo <= sigma_max <= hi of a 1-dimensional stencil:
    the largest row 2-norm and Gershgorin's bound of its Golub-Kahan
    tridiagonal."""
    ends = np.concatenate([[0.0], _chain(*stencil), [0.0]])
    return np.hypot(ends[:-1], ends[1:]).max(), (ends[:-1] + ends[1:]).max()


def dip_path():
    # D = 1 at the ends and -20 on [0.3, 0.7]: solutions of f' + D f = 0
    # grow by about e^10 across the dip, so both cylinder matrices have one
    # singular value near 1.4e-8 sigma_max, the next at 2.3e-2 sigma_max
    model = WeightedBlockModel([(1, 1.0)])
    return OperatorPath(model, [(u, BlockHermitian(model, [[value]])) for u, value
                                in [(0.0, 1.0), (0.3, -20.0), (0.7, -20.0), (1.0, 1.0)]])


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("edge", ["lower", "upper"])
def test_a_tie_in_the_first_bracket_is_decided_by_bisection(monkeypatch, scheme, edge):
    # theta puts one singular value inside the first window
    # [theta lo / 10, 10 theta hi] but outside the dense one [cut / 10,
    # 10 cut]: the first two counts disagree, the bisection resolves the
    # tie, and the count is the dense one, not an ambiguity
    calls, count_below = [], apsindex._count_below
    monkeypatch.setattr(apsindex, "_count_below",
                        lambda *args: calls.append(args[1]) or count_below(*args))
    prob = SuspensionProblem(path=dip_path(), grid_size=64, scheme=scheme,
                             geometry="cylinder", cylinder_length=1.0)
    for stencil in _block_matrices(prob):
        mat = _fill(*stencil)
        sigma = np.linalg.svd(mat, compute_uv=False)
        lo, hi = _bracket(stencil)
        if edge == "lower":  # sigma_min between theta lo / 10 and cut / 10
            theta = 10.0 * sigma[-1] * math.sqrt(sigma[0] / lo) / sigma[0]
            assert theta * lo / 10.0 < sigma[-1] < theta * sigma[0] / 10.0
        else:  # the next one between 10 cut and 10 theta hi
            theta = sigma[-2] / (10.0 * math.sqrt(sigma[0] * hi))
            assert 10.0 * theta * sigma[0] < sigma[-2] < 10.0 * theta * hi
        calls.clear()
        assert _kernel_dim(stencil, theta) == 1 == _dense_kernel_dim(mat, theta, sigma)
        assert len(calls) > 2


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("edge", [10.0, 0.1])
@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
def test_kernel_dim_at_the_edges_of_the_gap_window(scheme, edge, side):
    # theta puts the smallest singular value of each single-crossing
    # cylinder matrix at edge * cut * side, just inside or just outside the
    # window [cut / 10, 10 cut]: the count is the reference's, ambiguity
    # included, and never a different certified count
    for stencil in _block_matrices(single_crossing_cylinder(scheme=scheme)):
        mat = _fill(*stencil)
        sigma = np.linalg.svd(mat, compute_uv=False)
        theta = sigma[-1] / (edge * side * sigma[0])
        assert _count(stencil, theta) == _count(mat, theta, _dense_kernel_dim)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_stencil_entries_split_the_chain(scheme):
    # D = 2M makes the stencil entry -1/h + D/2 exactly 0: both matrices
    # are 2M times the identity, their Golub-Kahan chains full of zeros
    m = 64
    prob = SuspensionProblem(path=constant_path(2.0 * m), grid_size=m, scheme=scheme)
    for stencil in _block_matrices(prob):
        mat = _fill(*stencil)
        assert np.array_equal(mat, 2.0 * m * np.eye(m))
        assert _kernel_dim(stencil, prob.kernel_threshold) == 0 \
            == _dense_kernel_dim(mat, prob.kernel_threshold)
    assert aps_index(prob) == 0.0


def test_sturm_count_survives_a_zero_pivot():
    # for [[1, 1]] (sigma = sqrt 2) at theta = 0.05 the upper Sturm shift is
    # 10 theta * 2 = 1 exactly, where the second pivot -1 - 1 / (-1) is 0;
    # one interval of width 1 with D = 0 and a flipped first basis gives it
    stencil = (np.zeros((1, 1, 1)), 1.0, 1.0, -np.eye(1), np.eye(1))
    mat = _fill(*stencil)
    assert np.array_equal(mat, [[1.0, 1.0]])
    assert _kernel_dim(stencil, 0.05) == 1 == _dense_kernel_dim(mat, 0.05)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_real_matrices_hold_the_complex_build_entries(scheme):
    # on 1-dimensional and diagonal blocks every product has one nonzero
    # term, so the real build is the complex one's real part, bit for bit
    probs = [replace(prob, scheme=scheme) for prob in real_problems()]
    stencils = [stencil for prob in probs for stencil in _block_matrices(prob)]
    real = [_fill(*stencil) for stencil in stencils]
    built = [_fill(*as_complex(stencil)) for stencil in stencils]
    assert len(real) == len(built)
    for mat, ref in zip(real, built):
        assert ref.dtype == COMPLEX and not ref.imag.any()
        assert mat.tobytes() == np.ascontiguousarray(ref.real).tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_real_matrices_still_refuse_an_ambiguous_gap(scheme):
    # at theta = 0.01 singular values of the single-crossing cylinder fall
    # in the window [cut / 10, 10 cut] of both matrices
    prob = single_crossing_cylinder(scheme=scheme, kernel_threshold=0.01)
    for stencil in _block_matrices(prob):
        assert _fill(*stencil).dtype == REAL
        with pytest.raises(NumericError, match="gap ambiguity"):
            _kernel_dim(stencil, prob.kernel_threshold)
    with pytest.raises(NumericError, match="gap ambiguity"):
        aps_index(prob)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_two_dimensional_gap_ambiguity_raises_with_the_bracket(scheme):
    # theta puts the second smallest singular value of each kernel-and-
    # cokernel matrix at the cut itself: the SVD route raises the one
    # ambiguity error, with sigma_max at both ends of its bracket
    prob = SuspensionProblem(path=kernel_and_cokernel_path(), grid_size=64, scheme=scheme)
    for stencil in _block_matrices(prob):
        mat = _fill(*stencil)
        assert stencil[0].shape[1] == 2
        sigma = np.linalg.svd(mat, compute_uv=False)
        theta = sigma[-2] / sigma[0]
        cut = theta * sigma[0]
        assert sigma[-1] < cut / 10.0 <= sigma[-2] < 10.0 * cut
        near = int(np.sum((sigma >= cut / 10.0) & (sigma < 10.0 * cut)))
        assert _count(mat, theta, _dense_kernel_dim) == "ambiguous"
        with pytest.raises(NumericError, match=f"gap ambiguity: {near} values near "
                           "the threshold") as info:
            _kernel_dim(stencil, theta)
        assert info.value.partial == (sigma[0], sigma[0])
        assert json.loads(json.dumps(info.value.partial)) == [sigma[0], sigma[0]]


def test_index_holds_one_block_matrix_at_a_time(monkeypatch):
    # each dense matrix is counted and dropped before the next one is filled
    filled, fill = [], _fill

    def tracked(*stencil):
        gc.collect()
        assert all(ref() is None for ref in filled)
        mat = fill(*stencil)
        filled.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(apsindex, "_fill", tracked)
    model = WeightedBlockModel([(2, 1.0), (3, 0.5)])
    path = random_path(rng_from_seed(6700), model, num_samples=7, endpoint_flat=True)
    aps_index(SuspensionProblem(path=path, grid_size=32))
    assert len(filled) == 4


def two_dimensional_constant(value):
    model = WeightedBlockModel([(2, 1.0)])
    us = np.linspace(0.0, 1.0, 9)
    return OperatorPath(model, [(float(u), BlockHermitian(model, value)) for u in us])


COMPLEX_BLOCK = np.array([[0.9, 0.1j], [-0.1j, 0.9]])


@pytest.mark.parametrize("value, copies, runs", [
    pytest.param(COMPLEX_BLOCK, 2.5, True, id="2.5-True"),
    pytest.param(COMPLEX_BLOCK, 1.5, False, id="1.5-False"),
    pytest.param(0.9 * np.eye(2), 1.5, True, id="real-1.5-True"),
    pytest.param(0.9 * np.eye(2), 0.5, False, id="real-0.5-False")])
def test_memory_guard_counts_one_matrix_and_the_svd_copy(monkeypatch, value, copies, runs):
    # a 2-dimensional block at M = 32 gives matrices of at most 64 x 66
    # entries, counted at 16 bytes an entry for a complex block and at 8 for
    # a real one, which is filled in float64
    prob = SuspensionProblem(path=two_dimensional_constant(value), grid_size=32)
    dtype = COMPLEX if np.iscomplexobj(value) else REAL
    assert [mat.dtype for mat in dense_matrices(prob)] == [dtype] * 2
    monkeypatch.setattr(apsindex, "physical_memory", lambda: copies * 16 * 64 * 66)
    if runs:
        assert aps_index(prob) == 0.0
    else:
        with pytest.raises(PreconditionError, match="dense 64 x 66 matrices, .* GiB"):
            aps_index(prob)


def test_a_numpy_integer_grid_size_is_accepted():
    path = flatten_endpoints(single_crossing_path(), margin=0.15)
    assert aps_index(SuspensionProblem(path=path, grid_size=np.int64(64))) == 1.0


@pytest.mark.parametrize("theta, length", [(np.float64(1e-7), np.int64(2)),
                                           (1e-7, 2), (np.float32(1e-7), 2.0)])
def test_numpy_and_python_numbers_set_threshold_and_length(theta, length):
    prob = SuspensionProblem(path=single_crossing_path(), grid_size=64,
                             geometry="cylinder", kernel_threshold=theta,
                             cylinder_length=length)
    assert aps_index(prob) == 1.0


def chain_bytes(prob):
    """What the memory guard counts for a problem of 1-dimensional blocks:
    160 bytes an interval, and 160 more for each operator entry."""
    intervals = len(apsindex._grid(prob, apsindex._real_blocks(prob.path))) - 1
    return 160 * (1 + prob.path.model.dim ** 2) * intervals


@pytest.mark.parametrize("spare, runs", [(0, True), (-1, False)])
def test_memory_guard_counts_the_chain_route_of_one_dimensional_blocks(
        monkeypatch, spare, runs):
    # the cylinder at M = 64 has 576 intervals and fills no matrix
    prob = single_crossing_cylinder()
    need = chain_bytes(prob)
    assert need == 160 * 2 * 576
    monkeypatch.setattr(apsindex, "physical_memory", lambda: need + spare)
    if runs:
        assert aps_index(prob) == 1.0
    else:
        with pytest.raises(PreconditionError,
                           match="needs 576 grid intervals, at most .* GiB"):
            aps_index(prob)


def test_a_long_one_dimensional_grid_fits_in_one_gib(monkeypatch):
    # 27000 intervals: dense matrices would need 21.7 GiB, the chains 8.6 MB
    monkeypatch.setattr(apsindex, "physical_memory", lambda: 2.0 ** 30)
    assert aps_index(single_crossing_cylinder(grid_size=3000)) == 1.0


def cubic_blocks_path():
    model = WeightedBlockModel([(1, 1.0), (1, 0.5)])
    samples = [(u, BlockHermitian(model, np.diag([2 * u - 1, np.cos(3 * u)])))
               for u in np.linspace(0.0, 1.0, 7)]
    return flatten_endpoints(OperatorPath(model, samples, interpolation="cubic"))


@pytest.mark.parametrize("build", [
    lambda: single_crossing_cylinder(grid_size=3000),
    lambda: SuspensionProblem(path=cubic_blocks_path(), grid_size=4000)],
    ids=["single-crossing-cylinder", "cubic-two-blocks"])
def test_one_dimensional_index_stays_within_its_counted_bytes(build):
    # measured peaks: about 155 of the 320 bytes an interval counted for
    # the cylinder, 590 of the 800 for the cubic path
    prob = build()
    need = chain_bytes(prob)
    tracemalloc.start()
    try:
        aps_index(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need / 4 < peak < need


def _expand_adjoint_null(path, v, grid, dim):
    """Map an A_adj null vector from reduced node dofs to ambient node space."""
    from sfcalc.tracemodel import zero_tolerance

    dec0 = eigh(path.eval(0.0))
    dec1 = eigh(path.eval(1.0))
    q_first = dec0.eigenvectors[:, dec0.eigenvalues >= -zero_tolerance(dec0.op_norm)]
    q_last = dec1.eigenvectors[:, dec1.eigenvalues < -zero_tolerance(dec1.op_norm)]
    kf = q_first.shape[1]
    full = np.zeros((grid + 1, dim), dtype=complex)
    full[0] = q_first @ v[:kf]
    full[1:grid] = v[kf: kf + (grid - 1) * dim].reshape(grid - 1, dim)
    full[grid] = q_last @ v[kf + (grid - 1) * dim:]
    return full


def _adjoint_angle(path, grid, dim):
    prob = SuspensionProblem(path=path, grid_size=grid)
    a, adj = dense_matrices(prob)
    ua, sa, _ = np.linalg.svd(a)
    left_null = ua[:, -1]              # cokernel of A (interval space)
    assert sa[-1] > 1e-3 * sa[0]       # tall A: cokernel is structural
    _, _, vj = np.linalg.svd(adj)
    full = _expand_adjoint_null(path, vj[-1].conj(), grid, dim)
    averaged = (0.5 * (full[:-1] + full[1:])).reshape(-1)
    cosine = abs(np.vdot(averaged, left_null)) / (
        np.linalg.norm(averaged) * np.linalg.norm(left_null))
    return math.sqrt(max(0.0, 1.0 - cosine ** 2))


def test_adjoint_consistency_subspace_angle():
    # independently assembled A_adj: its kernel matches the cokernel of A
    # after node-to-interval averaging (summation by parts makes the pairing
    # exact, so the angle sits at roundoff level)
    scalar = flatten_endpoints(scalar_linear_path(1.0, -1.0), margin=0.15,
                               num_samples=41)
    assert _adjoint_angle(scalar, 500, 1) < 1e-6

    model = WeightedBlockModel([(2, 1.0)])
    rng = rng_from_seed(12)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    wiggle = 0.35 * (x + x.conj().T)
    f0 = np.diag([1.5, 0.8]).astype(complex)
    f1 = np.diag([-1.2, 0.9]).astype(complex)
    us = np.linspace(0.0, 1.0, 9)
    samples = [(float(u), BlockHermitian(
        model, (1 - u) * f0 + u * f1 + np.sin(np.pi * u) * wiggle)) for u in us]
    block_path = flatten_endpoints(OperatorPath(model, samples), num_samples=33)
    assert sf_crossing(block_path).value == -1.0
    assert _adjoint_angle(block_path, 400, 2) < 1e-6


def test_grid_convergence_script_index_equals_flow():
    src = os.path.dirname(os.path.dirname(sfcalc.__file__))
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "grid_convergence.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, script, "--grids", "25", "50"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    flow = lines[0].split("crossing flow")[1].strip()
    indices = [line.split()[1] for line in lines[2:]]
    assert len(indices) == 2
    assert all(float(index) == float(flow) for index in indices)


# ---------------------------------------------------------------------------
# half-line inverse

def unit_model():
    return WeightedBlockModel([(1, 1.0)])


@pytest.mark.parametrize("x", [1e-8, 1.01e-5, 9.9e-4, 1.01e-3, 0.1, 10.0])
@pytest.mark.parametrize("h", [0.01, 2.0])
def test_exp_moments_match_50_digit_reference(x, h):
    # E1 = (1 - e^{-x}) / mu and E2 = (1 - e^{-x} (1 + x)) / mu^2 with
    # x = mu h, on both sides of the switch from the series at x = 1e-3
    mu = x / h
    with localcontext() as ctx:
        ctx.prec = 50
        m, step = Decimal(mu), Decimal(h)
        q = (-(m * step)).exp()
        ref = [float((1 - q) / m), float((1 - q * (1 + m * step)) / (m * m))]
    for got, want in zip(_exp_moments(mu, h), ref):
        assert abs(got - want) <= 1e-12 * want


def test_halfline_positive_eigenvalue_oracle():
    # g' + g = 1_[0,1], g(0) = 0  =>  g = 1 - e^{-x} on [0, 1]
    d0 = BlockHermitian(unit_model(), [[1.0]])
    grid = 300
    xs = np.linspace(0.0, 3.0, grid + 1)
    f = (xs <= 1.0).astype(complex)
    g = halfline_aps_apply_inverse(d0, f, 3.0, grid)
    oracle = np.where(xs <= 1.0, 1.0 - np.exp(-xs),
                      (1.0 - math.exp(-1.0)) * np.exp(-(xs - 1.0)))
    assert g[0] == 0.0
    assert np.abs(g - oracle).max() < 2.0 * (3.0 / grid)


def test_halfline_zero_rhs():
    d0 = BlockHermitian(unit_model(), [[1.0]])
    g = halfline_aps_apply_inverse(d0, np.zeros(101, dtype=complex), 1.0, 100)
    assert np.abs(g).max() == 0.0


def test_halfline_negative_eigenvalue_oracle():
    # g' - g = 1_[0,1] with the decaying branch: g = -(1 - e^{x-1}) on [0, 1]
    d0 = BlockHermitian(unit_model(), [[-1.0]])
    grid = 300
    xs = np.linspace(0.0, 3.0, grid + 1)
    f = (xs <= 1.0).astype(complex)
    g = halfline_aps_apply_inverse(d0, f, 3.0, grid)
    oracle = np.where(xs <= 1.0, -(1.0 - np.exp(xs - 1.0)), 0.0)
    assert np.abs(g - oracle).max() < 2.0 * (3.0 / grid)


@pytest.mark.parametrize("length", [1e300, 1.7e308])
def test_cylinder_beyond_the_float_range_is_refused(length):
    # the grid size is refused before it is converted to an integer
    prob = SuspensionProblem(path=single_crossing_path(), grid_size=16,
                             geometry="cylinder", cylinder_length=length)
    with pytest.raises(PreconditionError, match="reduce the cylinder length"):
        aps_index(prob)


def test_halfline_requires_invertible():
    with pytest.raises(PreconditionError):
        halfline_aps_apply_inverse(unit_model().zero(),
                                   np.zeros(33, dtype=complex), 1.0, 32)


def test_halfline_boundary_condition_and_first_order_residual():
    for seed in range(3):
        rng = rng_from_seed(6600 + seed)
        model = WeightedBlockModel([(2, 1.0)])
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        base = 0.5 * (x + x.conj().T)
        d0 = BlockHermitian(model, base + 3.0 * np.eye(2))
        dec = eigh(d0)
        pos = dec.eigenvectors[:, dec.eigenvalues > 0]
        residuals = []
        for grid in (100, 200, 400):
            xs = np.linspace(0.0, 2.0, grid + 1)
            bump = np.exp(-1.0 / np.clip(xs * (1.6 - xs), 1e-12, None)) \
                * ((xs > 0) & (xs < 1.6))
            f = np.stack([bump, 0.3 * bump], axis=1).astype(complex)
            g = halfline_aps_apply_inverse(d0, f, 2.0, grid)
            assert np.abs(pos.conj().T @ g[0]).max() < 1e-8
            residuals.append(halfline_residual(d0, f, g, 2.0))
        assert residuals[1] < 0.7 * residuals[0]
        assert residuals[2] < 0.7 * residuals[1]


# ---------------------------------------------------------------------------
# perturbation / truncation report

def diagonal_operator(model, values):
    return BlockHermitian(model, np.diag(np.asarray(values, dtype=complex)))


def linear_k_path(model, k1_mat, num=9):
    us = np.linspace(0.0, 1.0, num)
    return OperatorPath(model, [(float(u), BlockHermitian(model, u * k1_mat))
                                for u in us])


def test_perturbation_zero_k_everywhere_invertible():
    model = WeightedBlockModel([(2, 1.0)])
    d = diagonal_operator(model, [1.0, -2.0])
    report = perturbation_truncation_check(
        d, linear_k_path(model, np.zeros((2, 2))), 1.0)
    assert report["minimal_passing_R"] == 1.0
    assert all(entry["passes"] for entry in report["sweep"])


def test_perturbation_well_separated_spectrum_passes_first():
    model = WeightedBlockModel([(2, 1.0), (2, 1.0)])
    d = diagonal_operator(model, [10.0, -10.0, 20.0, -20.0])
    rng = rng_from_seed(8)
    small = np.zeros((4, 4), dtype=complex)
    for sl in model.block_slices:
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        small[sl, sl] = 0.05 * (x + x.conj().T)
    report = perturbation_truncation_check(d, linear_k_path(model, small), 2.0)
    assert report["minimal_passing_R"] == 2.0


def test_perturbation_rank_two_norm_three_sweep():
    # eigenvalues +-1..+-8, rank-2 Hermitian bump of norm 3, R sweep 2,4,8
    model = WeightedBlockModel([(4, 1.0), (4, 1.0)])
    d = diagonal_operator(model, [1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 8.0, -8.0])
    rng = rng_from_seed(77)
    v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    k1 = np.zeros((8, 8), dtype=complex)
    k1[:4, :4] = v @ v.conj().T
    k1 *= 3.0 / np.linalg.norm(k1, 2)
    report = perturbation_truncation_check(d, linear_k_path(model, k1), 2.0)
    rs = [entry["R"] for entry in report["sweep"]]
    assert rs[:3] == [2.0, 4.0, 8.0]
    assert report["minimal_passing_R"] is not None
    for entry in report["sweep"]:
        if entry["passes"]:
            assert entry["index_matches_flow"]


def _frequency_path():
    return OperatorPath(FrequencyModel(), [(0.0, AffineSymbol(-1.0)),
                                           (1.0, AffineSymbol(1.0))])


_SCALAR = WeightedBlockModel([(1, 1.0)])
_TWO = WeightedBlockModel([(2, 1.0)])
APSINDEX_GUARDS = {
    "block-model": (lambda: SuspensionProblem(path=_frequency_path()),
                    ValidationError, "weighted block model"),
    "grid-size": (lambda: SuspensionProblem(path=single_crossing_path(), grid_size=15),
                  ValidationError, "grid_size must be an integer >= 16"),
    **{f"grid-size-{kind}": (lambda m=m: SuspensionProblem(
        path=single_crossing_path(), grid_size=m),
        ValidationError, "grid_size must be an integer >= 16")
       for kind, m in (("float", 64.0), ("fraction", 64.5), ("string", "64"))},
    "scheme": (lambda: SuspensionProblem(path=single_crossing_path(), scheme="leapfrog"),
               ValidationError, "unknown scheme 'leapfrog'"),
    "geometry": (lambda: SuspensionProblem(path=single_crossing_path(), geometry="torus"),
                 ValidationError, "unknown geometry 'torus'"),
    "kernel-threshold": (lambda: SuspensionProblem(path=single_crossing_path(),
                                                   kernel_threshold=0.0),
                         ValidationError, "kernel_threshold must be positive"),
    **{f"kernel-threshold-{theta}": (lambda theta=theta: SuspensionProblem(
        path=single_crossing_path(), kernel_threshold=theta),
        ValidationError, "kernel_threshold must be positive")
       for theta in (-1.0, math.nan)},
    **{f"kernel-threshold-{theta}": (lambda theta=theta: SuspensionProblem(
        path=single_crossing_path(), kernel_threshold=theta),
        ValidationError, r"kernel_threshold must be below 0\.1")
       for theta in (0.1, 5.0, 1e300, math.inf)},
    **{f"cylinder-length-{length}": (lambda length=length: SuspensionProblem(
        path=single_crossing_path(), geometry="cylinder", cylinder_length=length),
        ValidationError, "cylinder_length must be positive")
       for length in (-1.0, 0.0, math.nan)},
    **{f"kernel-threshold-{theta!r}": (lambda theta=theta: SuspensionProblem(
        path=single_crossing_path(), kernel_threshold=theta),
        ValidationError, "kernel_threshold must be a real number")
       for theta in ("0.01", None, True)},
    **{f"cylinder-length-{length!r}": (lambda length=length: SuspensionProblem(
        path=single_crossing_path(), geometry="cylinder", cylinder_length=length),
        ValidationError, "cylinder_length must be a real number")
       for length in ("2", True)},
    "halfline-operator": (lambda: halfline_aps_apply_inverse(np.eye(1), np.zeros(9), 1.0, 8),
                          ValidationError, "expects a BlockHermitian"),
    "halfline-rhs-shape": (lambda: halfline_aps_apply_inverse(
        diagonal_operator(_SCALAR, [1.0]), np.zeros(8), 1.0, 8),
        ValidationError, r"rhs shape \(8, 1\) does not match grid \(9, 1\)"),
    **{f"halfline-length-{length}": (lambda length=length: halfline_aps_apply_inverse(
        diagonal_operator(_SCALAR, [1.0]), np.zeros(9), length, 8),
        ValidationError, "needs length > 0 and grid_size >= 1")
       for length in (-1.0, 0.0, math.nan)},
    "halfline-length-inf": (lambda: halfline_aps_apply_inverse(
        diagonal_operator(_SCALAR, [1.0]), np.zeros(9), math.inf, 8),
        ValidationError, "with a finite length"),
    "halfline-grid-size": (lambda: halfline_aps_apply_inverse(
        diagonal_operator(_SCALAR, [1.0]), np.zeros(1), 1.0, 0),
        ValidationError, "needs length > 0 and grid_size >= 1"),
    "truncation-operator": (lambda: perturbation_truncation_check(
        np.eye(2), linear_k_path(_TWO, np.eye(2)), 1.0),
        ValidationError, "expects a BlockHermitian"),
    "truncation-base-invertible": (lambda: perturbation_truncation_check(
        diagonal_operator(_TWO, [1.0, 0.0]), linear_k_path(_TWO, np.eye(2)), 1.0),
        PreconditionError, "base operator must be invertible"),
    "truncation-starts-at-0": (lambda: perturbation_truncation_check(
        diagonal_operator(_TWO, [1.0, -2.0]), constant_path(0.5, _TWO), 1.0),
        ValidationError, "perturbation path must start at 0"),
    "truncation-end-invertible": (lambda: perturbation_truncation_check(
        diagonal_operator(_TWO, [1.0, -2.0]),
        linear_k_path(_TWO, np.diag([0.0, 2.0]).astype(complex)), 1.0),
        PreconditionError, r"D \+ K_1 must be invertible"),
    **{f"truncation-r-start-{r}": (lambda r=r: perturbation_truncation_check(
        diagonal_operator(_TWO, [1.0, -2.0]), linear_k_path(_TWO, np.eye(2)), r),
        ValidationError, "r_start must be positive and finite")
       for r in (0.0, -1.0, math.nan, math.inf)},
}


@pytest.mark.parametrize("case", APSINDEX_GUARDS)
def test_public_guards_raise_their_documented_errors(case):
    call, error, message = APSINDEX_GUARDS[case]
    with pytest.raises(error, match=message):
        call()
