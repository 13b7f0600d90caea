"""Trace, eigendecomposition, spectral projections and the frequency model."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sfcalc.errors import ModelError, NumericError, ValidationError
from sfcalc.path import OperatorPath
from sfcalc.tracemodel import (AffineSymbol, BlockHermitian,
                               ClusterBoundaryWarning, FrequencyModel,
                               IndicatorSymbol, Interval, WeightedBlockModel,
                               apply_function, eigh, eigh_stack, freq_trace,
                               spectral_projection, trace)

from jacobi import jacobi_eigh

RHO = 1.0 / (2.0 * math.pi)


def model1():
    return WeightedBlockModel([(2, 1.0)])


def hermitian(model, entries):
    return BlockHermitian(model, np.asarray(entries, dtype=complex))


def random_block_hermitian(seed, blocks):
    rng = np.random.default_rng(seed)
    model = WeightedBlockModel(blocks)
    mat = np.zeros((model.dim, model.dim), dtype=complex)
    for sl in model.block_slices:
        d = sl.stop - sl.start
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat[sl, sl] = 0.5 * (x + x.conj().T)
    return model, BlockHermitian(model, mat)


# ---------------------------------------------------------------------------
# trace

def test_trace_identity_single_block():
    assert trace(model1().identity()) == 2.0


def test_trace_identity_weighted():
    model = WeightedBlockModel([(1, 1.0), (1, 0.5)])
    assert trace(model.identity()) == 1.5


def test_trace_traceless_weighted_block():
    model = WeightedBlockModel([(2, 2.0)])
    assert trace(hermitian(model, [[3, 0], [0, -3]])) == 0.0


def test_trace_matches_weight_formula():
    model, op = random_block_hermitian(3, [(2, 0.5), (3, 1.25)])
    expected = 0.5 * np.trace(op.mat[:2, :2]).real + 1.25 * np.trace(op.mat[2:, 2:]).real
    assert trace(op) == pytest.approx(expected, abs=1e-12)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_trace_cyclicity(seed):
    model, a = random_block_hermitian(seed, [(2, 1.0), (2, 0.75)])
    _, b = random_block_hermitian(seed + 1, [(2, 1.0), (2, 0.75)])
    ab = BlockHermitian(model, 0.5 * (a.mat @ b.mat + (a.mat @ b.mat).conj().T))
    ba = BlockHermitian(model, 0.5 * (b.mat @ a.mat + (b.mat @ a.mat).conj().T))
    bound = 1e-9 * (np.linalg.norm(a.mat, 2) * np.linalg.norm(b.mat, 2)
                    * model.trace_identity)
    assert abs(trace(ab) - trace(ba)) < max(bound, 1e-12)


def test_model_validation():
    with pytest.raises(ValidationError):
        WeightedBlockModel([])
    with pytest.raises(ValidationError):
        WeightedBlockModel([(2, 0.0)])
    with pytest.raises(ValidationError):
        WeightedBlockModel([(0, 1.0)])


def test_off_block_entries_rejected():
    model = WeightedBlockModel([(1, 1.0), (1, 1.0)])
    with pytest.raises(ValidationError):
        BlockHermitian(model, [[0.0, 1.0], [1.0, 0.0]])


def test_non_hermitian_rejected():
    with pytest.raises(ValidationError):
        hermitian(model1(), [[0, 1], [0, 0]])


def test_lattice_step():
    assert WeightedBlockModel([(1, 1.0), (1, 0.5)]).lattice_step() == 0.5
    assert WeightedBlockModel([(2, 0.75), (1, 0.5)]).lattice_step() == 0.25
    assert WeightedBlockModel([(1, math.pi)]).lattice_step() is None


def test_snap_returns_the_double_nearest_the_lattice_point():
    # step 0.1 is not a double: three steps are 3/10 exactly, not 3 * 0.1
    model = WeightedBlockModel([(1, 0.3), (1, 0.1)])
    assert model.lattice_step() == 0.1
    assert model.snap(0.30000000000000004) == 0.3
    assert model.snap(0.3) == 0.3


def test_snap_refuses_a_value_off_the_lattice():
    model = WeightedBlockModel([(1, 1.0), (1, 0.5)])
    assert model.snap(1.4) == 1.5
    with pytest.raises(NumericError, match="away from the weight lattice") as info:
        model.snap(1.3)   # 0.2 from 1.5, more than a quarter step
    assert info.value.partial == 1.3


# ---------------------------------------------------------------------------
# eigendecomposition

def test_eigh_diagonal():
    dec = eigh(hermitian(model1(), [[2, 0], [0, -1]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0])


def test_eigh_pauli():
    dec = eigh(hermitian(model1(), [[0, 1], [1, 0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eigh_reconstruction_oracle():
    # reconstruction residual is the oracle for the random case
    model, op = random_block_hermitian(7, [(8, 1.0)])
    dec = eigh(op)
    assert np.linalg.norm(dec.reconstruct() - op.mat) < 1e-10 * np.linalg.norm(op.mat)
    v = dec.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(8)) < 1e-10


def test_eigh_deterministic_and_backends_agree():
    model, op = random_block_hermitian(11, [(3, 1.0), (4, 0.5)])
    d1 = eigh(op)
    d2 = eigh(op)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    assert np.linalg.norm(d1.reconstruct() - op.mat) < 1e-10 * np.linalg.norm(op.mat)
    for b in range(len(model.blocks)):
        vals, vecs = jacobi_eigh(op.block(b))
        assert np.allclose(np.sort(d1.eigenvalues[d1.block_index == b]), vals, atol=1e-11)
        assert np.linalg.norm((vecs * vals) @ vecs.conj().T - op.block(b)) \
            < 1e-10 * np.linalg.norm(op.block(b))


def test_eigh_blockwise_support():
    model, op = random_block_hermitian(5, [(2, 1.0), (3, 2.0)])
    dec = eigh(op)
    for k in range(model.dim):
        sl = model.block_slices[dec.block_index[k]]
        outside = np.delete(dec.eigenvectors[:, k], np.arange(sl.start, sl.stop))
        assert np.abs(outside).max() < 1e-14
        assert dec.weights[k] == model.blocks[dec.block_index[k]][1]


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# spectral projections and functional calculus

def test_projection_nonnegative_halfline():
    dec = eigh(hermitian(model1(), [[2, 0], [0, -1]]))
    p = spectral_projection(dec, Interval.nonnegative())
    assert np.allclose(p.mat, np.diag([1.0, 0.0]))


def test_projection_full_window():
    dec = eigh(hermitian(model1(), [[2, 0], [0, -1]]))
    p = spectral_projection(dec, Interval(-5.0, 5.0))
    assert np.allclose(p.mat, np.eye(2))


def test_projection_zero_eigenvalue_convention():
    model = WeightedBlockModel([(1, 1.0)])
    dec = eigh(model.zero())
    closed = spectral_projection(dec, Interval.nonnegative())
    open_ = spectral_projection(dec, Interval(0.0, math.inf, closed_lo=False,
                                              closed_hi=False))
    assert closed.mat[0, 0].real == 1.0
    assert open_.mat[0, 0].real == 0.0


def test_projection_idempotent_and_additive():
    model, op = random_block_hermitian(13, [(3, 1.0), (2, 0.5)])
    dec = eigh(op)
    p = spectral_projection(dec, Interval.nonnegative())
    assert np.linalg.norm(p.mat @ p.mat - p.mat) < 1e-10
    assert np.linalg.norm(p.mat - p.mat.conj().T) < 1e-10
    n = spectral_projection(dec, Interval.negative())
    total = spectral_projection(dec, Interval())
    assert np.linalg.norm(p.mat + n.mat - total.mat) < 1e-10
    assert abs(trace(p) + trace(n) - model.trace_identity) < 1e-10


def test_projection_cluster_warning():
    model = WeightedBlockModel([(2, 1.0)])
    dec = eigh(hermitian(model, [[1e-12, 0], [0, -1e-12]]))
    with pytest.warns(ClusterBoundaryWarning):
        spectral_projection(dec, Interval.nonnegative())


def test_apply_function_identity():
    op = hermitian(model1(), [[2, 0], [0, -1]])
    out = apply_function(eigh(op), lambda x: x)
    assert np.linalg.norm(out.mat - op.mat) < 1e-10


def test_apply_function_square_of_involution():
    out = apply_function(eigh(hermitian(model1(), [[0, 1], [1, 0]])),
                         lambda x: x ** 2)
    assert np.allclose(out.mat, np.eye(2), atol=1e-12)


def test_apply_function_gaussian_scalar():
    model = WeightedBlockModel([(1, 1.0)])
    out = apply_function(eigh(hermitian(model, [[1.0]])),
                         lambda x: np.exp(-x ** 2))
    assert out.mat[0, 0].real == pytest.approx(0.36787944117144233, abs=1e-15)


def test_apply_function_nonfinite_rejected():
    model = WeightedBlockModel([(1, 1.0)])
    with np.errstate(divide="ignore"), pytest.raises(NumericError):
        apply_function(eigh(hermitian(model, [[0.0]])), lambda x: 1.0 / x)


# ---------------------------------------------------------------------------
# frequency model

def test_freq_trace_unit_indicator():
    model = FrequencyModel(rho=RHO)
    oracle, _ = quad(lambda xi: RHO, -1.0, 1.0)
    value = freq_trace(model, IndicatorSymbol(-1.0, 1.0))
    assert value == pytest.approx(oracle, abs=1e-10)
    assert value == pytest.approx(1.0 / math.pi, abs=1e-10)


def test_freq_trace_zero_symbol():
    model = FrequencyModel(rho=RHO)
    assert freq_trace(model, lambda xi: np.zeros_like(xi)) == 0.0


def test_freq_trace_translation_invariance():
    model = FrequencyModel(rho=RHO)
    value = freq_trace(model, IndicatorSymbol(0.0, 2.0))
    assert value == pytest.approx(1.0 / math.pi, abs=1e-10)


def test_freq_trace_monotone():
    model = FrequencyModel(rho=lambda xi: RHO * np.exp(-0.01 * xi ** 2))
    small = freq_trace(model, IndicatorSymbol(-1.0, 1.0))
    large = freq_trace(model, IndicatorSymbol(-2.0, 2.0))
    assert small <= large


@given(st.floats(-3.0, 3.0), st.floats(0.1, 2.0))
@settings(max_examples=25, deadline=None)
def test_freq_trace_indicator_matches_density_integral(center, half_width):
    model = FrequencyModel(rho=RHO)
    lo, hi = center - half_width, center + half_width
    value = freq_trace(model, IndicatorSymbol(lo, hi))
    assert value == pytest.approx((hi - lo) * RHO, abs=1e-9)


def test_affine_symbol_roots_and_lerp():
    a = AffineSymbol(offset=-1.0)
    b = AffineSymbol(offset=1.0)
    mid = OperatorPath(FrequencyModel(), [(0.0, a), (1.0, b)]).eval(0.5)
    assert isinstance(mid, AffineSymbol)
    assert mid.offset == 0.0
    assert mid.breakpoints() == (0.0,)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(entry):
    model = WeightedBlockModel([(1, 1.0), (1, 0.5)])
    with pytest.raises(ValidationError, match="finite"):
        BlockHermitian(model, [[entry, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("blocks", [[(1, 0.5)], [(1, math.sqrt(2.0))]],
                         ids=["lattice", "no-lattice"])
def test_snap_rejects_non_finite_values(blocks, raw):
    with pytest.raises(NumericError, match="not finite"):
        WeightedBlockModel(blocks).snap(raw)


def test_eigh_stack_matches_eigh_per_matrix_and_checks_residuals():
    blocks = [(2, 1.0), (3, 0.5)]
    model = WeightedBlockModel(blocks)
    mats = np.stack([random_block_hermitian(31 + k, blocks)[1].mat for k in range(6)])
    parts = eigh_stack(model, mats)
    for i, mat in enumerate(mats):
        dec = eigh(BlockHermitian(model, mat))
        for b, (vals, vecs) in enumerate(parts):
            own = dec.block_index == b
            assert np.array_equal(vals[i], dec.eigenvalues[own])
            sl = model.block_slices[b]
            assert np.array_equal(vecs[i], dec.eigenvectors[sl][:, own])
    broken = mats.copy()
    broken[4, 0, 1] += 1e-3  # not Hermitian: LAPACK reads one triangle only
    with pytest.raises(NumericError, match="matrix 4 of 6"):
        eigh_stack(model, broken)


TRACEMODEL_GUARDS = {
    "interval": (lambda: Interval(1.0, 0.0), ValidationError, "empty interval"),
    "block-shape": (lambda: BlockHermitian(model1(), np.eye(3)), ValidationError,
                    r"shape \(3, 3\) does not match model dimension 2"),
    "trace": (lambda: trace(np.eye(2)), ValidationError, "trace expects"),
    "eigh": (lambda: eigh(np.eye(2)), ValidationError, "eigh expects"),
    "projection": (lambda: spectral_projection(np.eye(2), Interval.nonnegative()),
                   ValidationError, "spectral_projection expects"),
    "function": (lambda: apply_function(np.eye(2), np.abs), ValidationError,
                 "apply_function expects"),
    "freq-trace": (lambda: freq_trace(model1(), IndicatorSymbol(0.0, 1.0)),
                   ModelError, "freq_trace expects a FrequencyModel"),
    "xi-max": (lambda: FrequencyModel(xi_max=0.0), ValidationError,
               "xi_max must be positive"),
    "density": (lambda: freq_trace(FrequencyModel(rho=lambda xi: -np.ones_like(xi)),
                                   IndicatorSymbol(0.0, 1.0)),
                ValidationError, "density must be nonnegative"),
    # a non-finite density is an input error, not a quadrature failure
    **{f"density-callable-{name}": (
        lambda bad=bad: freq_trace(FrequencyModel(rho=lambda xi: np.full_like(xi, bad)),
                                   IndicatorSymbol(0.0, 1.0)),
        ValidationError, "density must be nonnegative and finite")
       for name, bad in (("nan", math.nan), ("inf", math.inf))},
    # constructors refuse what they used to coerce or carry to a later failure
    "block-dim-float": (lambda: WeightedBlockModel([(1.7, 1.0)]), ValidationError,
                        "block dimension 1.7 must be an integer"),
    "block-dim-bool": (lambda: WeightedBlockModel([(True, 1.0)]), ValidationError,
                       "block dimension True must be an integer"),
    "block-dim-str": (lambda: WeightedBlockModel([("2", 1.0)]), ValidationError,
                      "block dimension '2' must be an integer"),
    "block-weight-str": (lambda: WeightedBlockModel([(2, "1.0")]), ValidationError,
                         "block weight '1.0' must be positive finite"),
    "density-negative": (lambda: FrequencyModel(rho=-1.0), ValidationError,
                         "density must be nonnegative and finite"),
    "density-nan": (lambda: FrequencyModel(rho=math.nan), ValidationError,
                    "density must be nonnegative and finite"),
    "xi-max-inf": (lambda: FrequencyModel(xi_max=math.inf), ValidationError,
                   "xi_max must be positive and finite"),
}


@pytest.mark.parametrize("case", TRACEMODEL_GUARDS)
def test_public_guards_raise_their_documented_errors(case):
    call, error, message = TRACEMODEL_GUARDS[case]
    with pytest.raises(error, match=message):
        call()
