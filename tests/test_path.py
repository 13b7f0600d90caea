"""Interpolation, differentiation and combinators for operator paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcalc.engines import sf_crossing
from sfcalc.errors import DomainError, ModelError, ValidationError
from sfcalc.generators import (involution_path, random_block_model,
                               random_hermitian, random_path,
                               random_unitary_path, rng_from_seed,
                               scalar_linear_path, single_crossing_path)
from sfcalc.geometry import standard_metric_paths, trivialized_path
from sfcalc.path import (OperatorPath, concatenate, conjugate, direct_sum,
                         flatten_endpoints, reparametrize, reverse)
from sfcalc.tracemodel import (AffineSymbol, BlockHermitian, FrequencyModel,
                               IndicatorSymbol, WeightedBlockModel, eigh,
                               eigh_stack)


def scalar_model():
    return WeightedBlockModel([(1, 1.0)])


def scalar_path_from(values, interpolation="linear"):
    model = scalar_model()
    us = np.linspace(0.0, 1.0, len(values))
    samples = [(float(u), BlockHermitian(model, [[v]])) for u, v in zip(us, values)]
    return OperatorPath(model, samples, interpolation=interpolation)


def test_eval_linear_midpoint():
    path = scalar_path_from([-1.0, 1.0])
    assert path.eval(0.5).mat[0, 0].real == 0.0


def test_eval_exact_at_nodes():
    path = scalar_path_from([0.3, -0.7, 2.0])
    assert path.eval(0.5).mat[0, 0].real == -0.7


def test_eval_outside_domain():
    path = scalar_path_from([-1.0, 1.0])
    with pytest.raises(DomainError):
        path.eval(1.5)


def test_cubic_eval_reproduces_quadratic():
    us = np.linspace(0.0, 1.0, 5)
    path = scalar_path_from([u ** 2 for u in us], interpolation="cubic")
    assert path.eval(0.3).mat[0, 0].real == pytest.approx(0.09, abs=1e-6)


def test_cubic_derivative_reproduces_quadratic():
    us = np.linspace(0.0, 1.0, 5)
    path = scalar_path_from([u ** 2 for u in us], interpolation="cubic")
    assert path.derivative(0.5).mat[0, 0].real == pytest.approx(1.0, abs=1e-6)


def test_linear_derivative_constant():
    path = scalar_path_from([-1.0, 1.0])
    for u in (0.0, 0.25, 0.9):
        assert path.derivative(u).mat[0, 0].real == pytest.approx(2.0)


def test_constant_path_derivative_zero():
    path = scalar_path_from([0.4, 0.4, 0.4])
    assert path.derivative(0.6).mat[0, 0].real == 0.0


def test_path_validation():
    model = scalar_model()
    op = model.identity()
    with pytest.raises(ValidationError):
        OperatorPath(model, [(0.0, op)])
    with pytest.raises(ValidationError):
        OperatorPath(model, [(0.1, op), (1.0, op)])
    assert not OperatorPath(model, [(0.0, op), (1.0, model.zero())]).endpoint_flat


def test_endpoint_flatness_is_read_from_the_samples():
    flat = scalar_path_from([-1.0, -1.0, 0.5, 1.0, 1.0])
    assert flat.endpoint_flat
    assert not scalar_path_from([-1.0, -1.0, 0.5, 1.0]).endpoint_flat
    assert not scalar_path_from([-1.0, 1.0]).endpoint_flat
    assert scalar_path_from([0.5, 0.5]).endpoint_flat


def test_cubic_path_needs_three_samples():
    with pytest.raises(ValidationError, match="at least 3 samples"):
        scalar_path_from([-1.0, 1.0], interpolation="cubic")
    assert scalar_path_from([-1.0, 0.0, 1.0], interpolation="cubic").eval(0.5).mat[0, 0] == 0.0


def test_frequency_path_samples_are_affine_symbols():
    model = FrequencyModel()
    with pytest.raises(ValidationError, match="affine symbols"):
        OperatorPath(model, [(0.0, AffineSymbol(offset=-1.0)),
                             (1.0, IndicatorSymbol(-1.0, 1.0))])


def frequency_path(rows, us=None):
    us = np.linspace(0.0, 1.0, len(rows)) if us is None else us
    return OperatorPath(FrequencyModel(), [
        (float(u), AffineSymbol(offset=offset, slope=slope))
        for u, (offset, slope) in zip(us, rows)])


def test_frequency_path_interpolates_like_the_block_stack():
    rows = [(-1.0, 1.0), (0.3, 0.7), (1.1, 1.9)]
    us = [0.0, 0.3, 1.0]
    path = frequency_path(rows, us)
    for j, (a, b) in enumerate(zip(rows[:-1], rows[1:])):
        h = us[j + 1] - us[j]
        for u in (us[j], 0.5 * (us[j] + us[j + 1])):
            t = (u - us[j]) / h
            sym, dsym = path.eval(u), path.derivative(u)
            assert isinstance(sym, AffineSymbol) and isinstance(dsym, AffineSymbol)
            assert (sym.offset, sym.slope) == ((1 - t) * a[0] + t * b[0],
                                               (1 - t) * a[1] + t * b[1])
            assert (dsym.offset, dsym.slope) == ((b[0] - a[0]) / h,
                                                 (b[1] - a[1]) / h)
    end = path.eval(1.0)
    assert (end.offset, end.slope) == rows[-1]
    with pytest.raises(ValidationError, match="one parameter at a time"):
        path.eval(np.array([0.2, 0.4]))


def test_concatenate_frequency_paths():
    a = frequency_path([(-1.0, 1.0), (0.0, 1.0)])
    glued = concatenate(a, frequency_path([(0.0, 1.0), (1.0, 1.0)]))
    assert glued.eval(0.75).offset == 0.5
    with pytest.raises(ValidationError, match="splice point"):
        concatenate(a, frequency_path([(0.0, 1.5), (1.0, 1.0)]))
    with pytest.raises(ValidationError, match="common model"):
        concatenate(a, scalar_path_from([0.0, 1.0]))


def test_concatenate_constant_paths():
    a = scalar_path_from([1.0, 1.0])
    b = scalar_path_from([1.0, 1.0])
    glued = concatenate(a, b)
    for u in (0.0, 0.3, 0.77, 1.0):
        assert glued.eval(u).mat[0, 0].real == 1.0


def test_concatenate_linear_halves():
    a = scalar_path_from([-1.0, 0.0])
    b = scalar_path_from([0.0, 1.0])
    glued = concatenate(a, b)
    assert 0.5 in glued.nodes
    assert glued.eval(0.5).mat[0, 0].real == 0.0
    assert glued.eval(0.25).mat[0, 0].real == pytest.approx(-0.5)


def test_concatenate_mismatch_rejected():
    a = scalar_path_from([-1.0, 0.5])
    b = scalar_path_from([0.0, 1.0])
    with pytest.raises(ValidationError):
        concatenate(a, b)


def test_concatenation_additivity_of_crossing_flow():
    # invertible splice points, random pairs
    for seed in range(8):
        rng = rng_from_seed(900 + seed)
        model = random_block_model(rng, max_blocks=2, max_block_dim=3)
        a = random_path(rng, model, num_samples=5)
        b_raw = random_path(rng, model, num_samples=5)
        # shift b to start where a ends so the splice is well defined
        offset = a.eval(1.0).mat - b_raw.eval(0.0).mat
        samples = [(float(u), BlockHermitian(model, b_raw.sample(j).mat + offset))
                   for j, u in enumerate(b_raw.us)]
        b = OperatorPath(model, samples)
        splice_gap = np.min(np.abs(eigh(a.eval(1.0)).eigenvalues))
        if splice_gap <= 1e-6:
            continue
        total = sf_crossing(concatenate(a, b)).value
        assert total == sf_crossing(a).value + sf_crossing(b).value


def test_conjugate_identity_fixes_path():
    rng = rng_from_seed(4)
    model = random_block_model(rng)
    path = random_path(rng, model, num_samples=5)
    same = conjugate(path, np.eye(model.dim, dtype=complex))
    for j in range(len(path.us)):
        assert np.allclose(same.sample(j).mat, path.sample(j).mat)


def test_conjugate_commuting_diagonal_unitary():
    path = scalar_path_from([-1.0, 0.2, 1.0])
    u = np.array([[np.exp(1j * 0.3)]])
    rotated = conjugate(path, u)
    for j in range(3):
        assert np.allclose(rotated.sample(j).mat, path.sample(j).mat)


def test_conjugate_preserves_spectra():
    rng = rng_from_seed(21)
    model = random_block_model(rng)
    path = random_path(rng, model, num_samples=5)
    mats = random_unitary_path(rng, model, 5)
    rotated = conjugate(path, mats)
    for j in range(5):
        lam0 = eigh(path.sample(j)).eigenvalues
        lam1 = eigh(rotated.sample(j)).eigenvalues
        assert np.allclose(lam0, lam1, atol=1e-9)


def test_conjugate_rejects_non_unitary():
    path = scalar_path_from([-1.0, 1.0])
    with pytest.raises(ValidationError):
        conjugate(path, np.array([[2.0]], dtype=complex))


def test_weyl_spectral_continuity():
    rng = rng_from_seed(17)
    model = random_block_model(rng)
    path = random_path(rng, model, num_samples=9)
    us = np.linspace(0.0, 1.0, 33)
    for a, b in zip(us[:-1], us[1:]):
        lam_a = eigh(path.eval(a)).eigenvalues
        lam_b = eigh(path.eval(b)).eigenvalues
        step = np.linalg.norm(path.eval(b).mat - path.eval(a).mat, 2)
        assert np.abs(lam_a - lam_b).max() <= step + 1e-12


def test_reverse_swaps_endpoints():
    path = scalar_path_from([-1.0, 0.3, 1.0])
    rev = reverse(path)
    assert rev.eval(0.0).mat[0, 0].real == 1.0
    assert rev.eval(1.0).mat[0, 0].real == -1.0


def test_direct_sum_block_structure():
    a = scalar_path_from([-1.0, 1.0])
    b = scalar_path_from([0.5, 0.5, 0.5])
    both = direct_sum(a, b)
    assert both.model.dim == 2
    assert both.eval(0.5).mat[0, 0].real == 0.0
    assert both.eval(0.5).mat[1, 1].real == 0.5


def test_flatten_endpoints_marks_flat():
    path = scalar_path_from([-1.0, 1.0])
    flat = flatten_endpoints(path)
    assert flat.endpoint_flat
    assert np.array_equal(flat.sample(0).mat, flat.sample(1).mat)
    assert flat.eval(0.0).mat[0, 0].real == -1.0
    assert flat.eval(1.0).mat[0, 0].real == 1.0


@given(st.integers(0, 10 ** 6), st.sampled_from(["linear", "cubic"]))
@settings(max_examples=30, deadline=None)
def test_eval_and_derivative_exactly_hermitian_block_diagonal(seed, interpolation):
    # eval and derivative skip BlockHermitian's checks: interpolation with
    # real coefficients must keep their values exactly Hermitian, with exact
    # zeros off the blocks, at nodes, between nodes and at both ends
    rng = rng_from_seed(seed)
    model = random_block_model(rng)
    inner = np.unique(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 6))))
    us = np.concatenate([[0.0], inner, [1.0]])
    path = OperatorPath(model, [(float(u), random_hermitian(rng, model, 2.0))
                                for u in us], interpolation=interpolation)
    off_block = np.ones((model.dim, model.dim), dtype=bool)
    for sl in model.block_slices:
        off_block[sl, sl] = False
    probes = np.concatenate([us, 0.5 * (us[:-1] + us[1:]), rng.uniform(size=5)])
    for u in probes:
        for op in (path.eval(u), path.derivative(u)):
            assert np.array_equal(op.mat, op.mat.conj().T), (u, interpolation)
            assert not op.mat[off_block].any(), (u, interpolation)


def _library_paths(seed):
    """Every kind of path the library builds from its own samples."""
    rng = rng_from_seed(seed)
    model = random_block_model(rng)
    plain = random_path(rng, model, num_samples=int(rng.integers(3, 10)))
    flat = random_path(rng, model, endpoint_flat=True)
    cubic = OperatorPath(model, [(float(u), random_hermitian(rng, model))
                                 for u in (0.0, 0.4, 1.0)], interpolation="cubic")
    minus = [int(rng.integers(0, dim + 1)) for dim, _ in model.blocks]
    involution, _ = involution_path(model, minus, rng=rng)
    return {
        "random_path": plain, "random_path(endpoint_flat)": flat,
        "involution_path": involution,
        "single_crossing_path": single_crossing_path(num_samples=3 + seed),
        "flatten_endpoints": flatten_endpoints(cubic, margin=0.1),
        "concatenate": concatenate(plain, reverse(plain)),
        "reverse": reverse(flat),
        "direct_sum": direct_sum(plain, cubic),
        "reparametrize": reparametrize(cubic, lambda t: t * t),
        "trivialized_path": trivialized_path(
            list(standard_metric_paths(n=4).values())[seed % 3]),
    }


@pytest.mark.parametrize("seed", range(10))
def test_library_built_stacks_need_no_checks(seed):
    # library-built paths skip BlockHermitian's checks; the checked
    # constructor must leave every sample of theirs bit for bit as it is
    for name, path in _library_paths(seed).items():
        checked = np.stack([BlockHermitian(path.model, mat).mat for mat in path._stack])
        assert checked.tobytes() == path._stack.tobytes(), name


@pytest.mark.parametrize("seed", range(10))
def test_spectra_hold_the_endpoint_decompositions(seed):
    # a path's one decomposition serves its endpoints: eval returns every
    # sample bit for bit, and the first and last matrices of the stacked
    # decomposition are those of F_0 and F_1 decomposed on their own
    for name, path in _library_paths(seed).items():
        assert path.eval(path.us).tobytes() == path._stack.tobytes(), name
        ends = eigh_stack(path.model, path.eval(np.array([0.0, 1.0])))
        assert path.spectra is path.spectra
        for (lam, vecs), (end_lam, end_vecs) in zip(path.spectra, ends):
            assert lam[[0, -1]].tobytes() == end_lam.tobytes(), name
            assert vecs[[0, -1]].tobytes() == end_vecs.tobytes(), name


def test_symbol_paths_have_no_spectra():
    with pytest.raises(ModelError, match="symbol paths have no sample decomposition"):
        _frequency_path().spectra


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("flat", [False, True], ids=["plain", "flat"])
def test_max_sample_norm_is_the_largest_sample_norm(seed, flat):
    # one batched 2-norm over the sample stack gives the bits of the norm
    # taken one sample at a time
    rng = rng_from_seed(seed)
    path = random_path(rng, random_block_model(rng), endpoint_flat=flat)
    loop = max(float(np.linalg.norm(mat, 2)) for mat in path._stack)
    assert path.max_sample_norm().hex() == loop.hex()


def _frequency_path():
    return OperatorPath(FrequencyModel(), [(0.0, AffineSymbol(-1.0)),
                                           (1.0, AffineSymbol(1.0))])


PATH_GUARDS = {
    "interpolation": (lambda: scalar_path_from([0.0, 1.0], interpolation="quadratic"),
                      "unknown interpolation 'quadratic'"),
    "increasing": (lambda: OperatorPath(scalar_model(), [
        (u, BlockHermitian(scalar_model(), [[u]])) for u in (0.0, 0.5, 0.5, 1.0)]),
        "strictly increasing"),
    "cubic-frequency": (lambda: OperatorPath(FrequencyModel(), [
        (u, AffineSymbol(u)) for u in (0.0, 0.5, 1.0)], interpolation="cubic"),
        "linear interpolation only"),
    "sample-type": (lambda: OperatorPath(scalar_model(), [(0.0, [[1.0]]), (1.0, [[1.0]])]),
                    "must be BlockHermitian"),
    "sample-model": (lambda: OperatorPath(scalar_model(), [
        (u, BlockHermitian(WeightedBlockModel([(1, 0.5)]), [[1.0]])) for u in (0.0, 1.0)]),
        "must live on the path's model"),
    "parameters-2d": (lambda: single_crossing_path().eval(np.zeros((2, 2))),
                      "a number or a 1-D array"),
    "norm-frequency": (lambda: _frequency_path().max_sample_norm(),
                       "not defined for symbol paths"),
    "conjugate-frequency": (lambda: conjugate(_frequency_path(), np.eye(1)),
                            "block paths only"),
    "direct-sum-frequency": (lambda: direct_sum(single_crossing_path(), _frequency_path()),
                             "block paths only"),
    "unitary-count": (lambda: conjugate(single_crossing_path(), [np.eye(1)] * 3),
                      "one unitary per path sample"),
    # a margin of 1/2 or more folds the warp back or divides by zero
    **{f"flatten-margin-{margin}": (
        lambda margin=margin: flatten_endpoints(single_crossing_path(), margin=margin),
        r"margin must lie in \[0, 0.5\)") for margin in (0.5, 0.6, -0.1)},
}


@pytest.mark.parametrize("case", PATH_GUARDS)
def test_public_guards_raise_their_documented_errors(case):
    call, message = PATH_GUARDS[case]
    with pytest.raises(ValidationError, match=message):
        call()
