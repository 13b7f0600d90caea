"""The four spectral-flow engines and the auxiliary invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sfcalc.apsindex import SCHEMES, SuspensionProblem, aps_index
from sfcalc.engines import (CHI_PROFILES, ChiProfile, cg_bound, eta_truncated,
                            sf_appendix, sf_crossing, sf_integral, sf_phillips)
from sfcalc.errors import (DomainError, ModelError, NumericError,
                           PreconditionError, ValidationError)
from sfcalc.generators import (involution_path, random_block_model,
                               random_path, random_unitary_path,
                               rng_from_seed, scalar_linear_path,
                               single_crossing_path)
from sfcalc.path import OperatorPath, conjugate, direct_sum, reparametrize, reverse
from sfcalc.tracemodel import (AffineSymbol, BlockHermitian, FrequencyModel,
                               WeightedBlockModel, eigh, trace)

RHO = 1.0 / (2.0 * math.pi)


def dirac_path(u0=-1.0, u1=1.0, num=5):
    model = FrequencyModel(rho=RHO)
    ts = np.linspace(0.0, 1.0, num)
    samples = [(float(t), AffineSymbol(offset=u0 + t * (u1 - u0))) for t in ts]
    return OperatorPath(model, samples)


# ---------------------------------------------------------------------------
# crossing

def test_crossing_single_upward():
    assert sf_crossing(single_crossing_path()).value == 1.0


def test_crossing_constant_invertible():
    assert sf_crossing(scalar_linear_path(0.8, 0.8)).value == 0.0


def test_crossing_involution_normalization():
    model = WeightedBlockModel([(4, 1.0)])
    path, expected = involution_path(model, [3], rng=rng_from_seed(2))
    assert expected == 3.0
    assert sf_crossing(path).value == 3.0


def test_crossing_zero_counts_nonnegative():
    # endpoint sitting exactly on the kernel: 0 belongs to the plus side
    assert sf_crossing(scalar_linear_path(0.0, 1.0)).value == 0.0
    assert sf_crossing(scalar_linear_path(0.0, -1.0)).value == -1.0


def _near_kernel_paths():
    """Two block paths with eigenvalues within the kernel tolerance of 0."""
    model = WeightedBlockModel([(2, 0.5), (1, 1.0)])
    tiny = OperatorPath(model, [
        (float(u), BlockHermitian(model, np.diag([2 * u - 1, 1e-10 * u, -u])))
        for u in np.linspace(0.0, 1.0, 5)])
    # -3e-9 is negative beside norm 1e-9 and in the kernel beside norm 100
    model = WeightedBlockModel([(1, 1.0), (1, 0.5)])
    tolerance_moves = OperatorPath(model, [
        (0.0, BlockHermitian(model, np.diag([-3e-9, 1e-9]))),
        (1.0, BlockHermitian(model, np.diag([-3e-9, 100.0])))])
    return [tiny, tolerance_moves]


def test_crossing_matches_per_node_decompositions():
    # the stacked route counts each block's nonnegative eigenvalues with the
    # endpoint's own kernel tolerance, as SpectralDecomposition.nonneg_mask does
    rng = rng_from_seed(8500)
    paths = [random_path(rng, random_block_model(rng), num_samples=7)
             for _ in range(6)]
    paths += _near_kernel_paths()
    for path in paths:
        res = sf_crossing(path)
        decs = [eigh(path.eval(0.0)), eigh(path.eval(1.0))]
        counts = [np.bincount(d.block_index[d.nonneg_mask()],
                              minlength=len(path.model.blocks)) for d in decs]
        assert res.raw == path.model.weighted_sum(counts[-1] - counts[0])
        assert res.diagnostics["min_endpoint_gap"] == min(
            np.abs(decs[0].eigenvalues).min(), np.abs(decs[-1].eigenvalues).min())
    assert res.raw == 1.0


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_crossing_scalar_endpoint_rule(a, b):
    def nonneg(x):
        return float(x >= -1e-9 * (1.0 + abs(x)))

    flow = sf_crossing(scalar_linear_path(a, b))
    assert flow.value == nonneg(b) - nonneg(a)


# ---------------------------------------------------------------------------
# phillips

def test_phillips_frequency_dirac_family():
    res = sf_phillips(dirac_path())
    assert res.value == pytest.approx(1.0 / math.pi, abs=1e-7)


def test_phillips_constant_path():
    res = sf_phillips(scalar_linear_path(0.5, 0.5))
    assert res.value == 0.0


def _phillips_per_node(path):
    """Reference Phillips sum on a block path: one eigh per sample node and
    the dense projection formula on checked operators.  Returns the raw sum
    and the endpoint gap."""
    model = path.model
    decs = [eigh(path.eval(float(u))) for u in path.us]

    def projection(dec):
        v = dec.eigenvectors[:, dec.nonneg_mask()]
        return BlockHermitian(model, v @ v.conj().T).mat

    eye = np.eye(model.dim)
    terms = []
    for a, b in zip(decs[:-1], decs[1:]):
        p, q = projection(a), projection(b)
        terms.append(trace(BlockHermitian(model, q @ (eye - p) @ q))
                     - trace(BlockHermitian(model, p @ (eye - q) @ p)))
    gap = min(float(np.abs(dec.eigenvalues).min()) for dec in (decs[0], decs[-1]))
    return math.fsum(terms), gap


def test_phillips_matches_per_node_route():
    rng = rng_from_seed(8700)
    paths = []
    for i in range(12):
        model = random_block_model(rng)
        base = random_path(rng, model, num_samples=7)
        paths.append(OperatorPath(
            model, [(u, base.sample(j)) for j, u in enumerate(base.us)],
            interpolation=("linear", "cubic")[i % 2]))
    paths += _near_kernel_paths()
    for path in paths:
        res = sf_phillips(path)
        raw, gap = _phillips_per_node(path)
        assert res.value == path.model.snap(raw)
        assert abs(res.raw - raw) <= 1e-12
        assert res.diagnostics["min_endpoint_gap"] == gap
    assert res.value == 1.0


def test_phillips_matches_crossing_on_random_paths():
    for seed in range(12):
        rng = rng_from_seed(3100 + seed)
        model = random_block_model(rng)
        path = random_path(rng, model, num_samples=7)
        assert sf_phillips(path).value == sf_crossing(path).value


# ---------------------------------------------------------------------------
# eta

def test_eta_single_eigenvalue_closed_form_and_quadrature_oracle():
    model = WeightedBlockModel([(1, 1.0)])
    op = BlockHermitian(model, [[1.0]])
    value = eta_truncated(op, 1.0)
    assert value == pytest.approx(math.erfc(1.0), abs=1e-14)
    # independent oracle: quadrature of the defining t-integral
    oracle, _ = quad(lambda t: math.exp(-t) / math.sqrt(t), 1.0, np.inf)
    assert value == pytest.approx(oracle / math.sqrt(math.pi), abs=1e-9)


def test_eta_symmetric_spectrum_vanishes():
    model = WeightedBlockModel([(2, 1.0)])
    op = BlockHermitian(model, np.diag([1.0, -1.0]).astype(complex))
    assert eta_truncated(op, 0.7) == 0.0


def test_eta_kernel_does_not_contribute():
    model = WeightedBlockModel([(1, 1.0)])
    assert eta_truncated(model.zero(), 2.0) == 0.0


def test_eta_weighted():
    model = WeightedBlockModel([(1, 0.5), (1, 1.0)])
    op = BlockHermitian(model, np.diag([2.0, -1.0]).astype(complex))
    expected = 0.5 * math.erfc(math.sqrt(3.0) * 2.0) - math.erfc(math.sqrt(3.0))
    assert eta_truncated(op, 3.0) == pytest.approx(expected, abs=1e-14)


def test_eta_decreases_on_doubling_grid_for_definite_spectra():
    # strict monotone decay holds when all eigenvalues share a sign; for
    # mixed-sign spectra |eta| may pass through zero and bounce
    for seed in range(10):
        rng = rng_from_seed(880 + seed)
        model = random_block_model(rng)
        op = random_path(rng, model, num_samples=3).eval(0.0)
        dec = eigh(op)
        shifted = BlockHermitian(model, dec.reconstruct()
                                 + (abs(dec.eigenvalues.min()) + 0.2) * np.eye(model.dim))
        values = [eta_truncated(shifted, s) for s in (1.0, 2.0, 4.0, 8.0, 16.0)]
        for a, b in zip(values[:-1], values[1:]):
            assert 0.0 <= b <= a + 1e-12


def test_eta_tends_to_zero_and_eventually_decreases():
    for seed in range(10):
        rng = rng_from_seed(880 + seed)
        model = random_block_model(rng)
        op = random_path(rng, model, num_samples=3).eval(0.0)
        gap = float(np.min(np.abs(eigh(op).eigenvalues)))
        tail = [abs(eta_truncated(op, s)) for s in (128.0, 256.0, 512.0)]
        for a, b in zip(tail[:-1], tail[1:]):
            assert b <= a + 1e-15
        assert tail[-1] <= math.erfc(math.sqrt(512.0) * gap) * model.trace_identity


def test_eta_invalid_s():
    model = WeightedBlockModel([(1, 1.0)])
    with pytest.raises(DomainError):
        eta_truncated(model.identity(), 0.0)


# ---------------------------------------------------------------------------
# integral formula

def test_integral_single_crossing_term_decomposition():
    path = single_crossing_path()
    for s in (0.5, 1.0, 4.0):
        res = sf_integral(path, s, quad_tol=1e-13)
        assert abs(res.raw - 1.0) < 1e-12
        assert res.diagnostics["integral_term"] == pytest.approx(
            math.erf(math.sqrt(s)), abs=1e-12)
        assert res.diagnostics["eta_term"] == pytest.approx(
            math.erfc(math.sqrt(s)), abs=1e-12)
        assert res.diagnostics["kernel_term"] == 0.0


def test_integral_constant_path():
    res = sf_integral(scalar_linear_path(-0.4, -0.4), 2.0)
    assert res.value == 0.0
    assert res.diagnostics["integral_term"] == pytest.approx(0.0, abs=1e-14)


def test_integral_s_independence_and_crossing_agreement():
    for seed in range(6):
        rng = rng_from_seed(5500 + seed)
        model = random_block_model(rng)
        path = random_path(rng, model, num_samples=7)
        flow = sf_crossing(path).value
        values = [sf_integral(path, s).raw for s in (0.5, 2.0, 8.0)]
        assert max(values) - min(values) < 1e-6
        for v in values:
            assert abs(v - flow) < 1e-6


def test_integral_kernel_terms_balance_zero_endpoint():
    # path from the kernel into the bulk: crossing convention says flow 0
    path = scalar_linear_path(0.0, 1.0)
    res = sf_integral(path, 2.0)
    assert res.value == 0.0
    assert res.diagnostics["kernel_term"] == pytest.approx(-0.5)


def test_integral_frequency_model():
    res = sf_integral(dirac_path(), 2.0)
    assert res.value == pytest.approx(1.0 / math.pi, abs=1e-7)


@pytest.mark.parametrize("interpolation", ["linear", "cubic"])
def test_batched_spectral_trace_matches_per_node_route(interpolation):
    # oracle for the batched route: stacked evaluation equals the scalar
    # calls bitwise, and the stacked-eigh trace equals a per-node loop
    from sfcalc.engines import _spectral_trace
    from sfcalc.quadrature import _NODES

    rng = rng_from_seed(8100)
    sine = CHI_PROFILES["sine"]()
    for _ in range(4):
        model = random_block_model(rng)
        base = random_path(rng, model, num_samples=7)
        path = OperatorPath(model, [(u, base.sample(j)) for j, u in enumerate(base.us)],
                            interpolation=interpolation)
        gauss = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _NODES
                                for a, b in zip(path.us[:-1], path.us[1:])])
        us = np.concatenate([gauss, path.us, [0.0, 1.0]])
        values, slopes = path.eval(us), path.derivative(us)
        assert values.shape == slopes.shape == (len(us), model.dim, model.dim)
        for i, u in enumerate(us):
            assert np.array_equal(values[i], path.eval(float(u)).mat), (interpolation, u)
            assert np.array_equal(slopes[i], path.derivative(float(u)).mat), (interpolation, u)

        for f in (lambda lam: np.exp(-2.0 * lam ** 2), sine.deriv):
            expected = []
            for u in us:
                dec = eigh(path.eval(float(u)))
                v = dec.eigenvectors
                diag = np.einsum("ji,jk,ki->i", v.conj(), path.derivative(float(u)).mat,
                                 v).real
                expected.append(np.sum(dec.weights * f(dec.eigenvalues) * diag))
            assert np.abs(_spectral_trace(path, us, f) - expected).max() <= 1e-13


# ---------------------------------------------------------------------------
# the one-path spectral sample memo

def _integral_calls(path):
    """Every integral engine call a run makes on one path, each returning
    its raw value, error estimate and panels as exact bits."""
    def bits(result):
        return (result.raw.hex(), result.diagnostics["quadrature_error"].hex(),
                result.diagnostics["quadrature_panels"])

    calls = [lambda s=s: bits(sf_integral(path, s)) for s in (0.5, 2.0, 8.0)]
    calls += [lambda name=name: bits(sf_appendix(path, CHI_PROFILES[name](),
                                                 rescale=True))
              for name in ("sine", "quintic")]
    return calls


def test_engine_values_do_not_depend_on_the_memo(monkeypatch):
    import sfcalc.engines as engines

    rng = rng_from_seed(8200)
    for interpolation in ("linear", "cubic"):
        for _ in range(3):
            model = random_block_model(rng)
            base = random_path(rng, model, num_samples=7)
            path = OperatorPath(model, [(u, base.sample(j))
                                        for j, u in enumerate(base.us)],
                                interpolation=interpolation)
            calls = _integral_calls(path)
            cold = []
            for call in calls:  # each call on an empty memo
                monkeypatch.setattr(engines, "_memo", (None, None))
                cold.append(call())
            monkeypatch.setattr(engines, "_memo", (None, None))
            assert [call() for call in calls] == cold
            with monkeypatch.context() as warm:  # decomposes nothing again
                warm.setattr(engines, "eigh_stack", None)
                warm.setattr(engines, "eigh", None)
                assert [call() for call in calls[::-1]] == cold[::-1]
            monkeypatch.setattr(engines, "_memo", (None, None))
            order = [4, 1, 3, 0, 2]
            assert [calls[k]() for k in order] == [cold[k] for k in order]


def test_memo_holds_only_the_latest_path():
    import gc
    import weakref

    import sfcalc.engines as engines

    rng = rng_from_seed(8300)
    first = random_path(rng, random_block_model(rng), num_samples=7)
    second = random_path(rng, random_block_model(rng), num_samples=7)
    sf_integral(first, 2.0)
    assert engines._memo[0] is first
    held = weakref.ref(first)
    del first
    sf_appendix(second, CHI_PROFILES["sine"](), rescale=True)
    gc.collect()
    assert held() is None
    assert engines._memo[0] is second


def test_one_engine_run_decomposes_each_endpoint_once(monkeypatch):
    # crossing, Phillips, the three heat integrals, both appendix profiles,
    # the index under both schemes and a cylinder problem all read the
    # path's spectra: one decomposition of its samples, and none of the
    # endpoints on their own (the integrands decompose their quadrature
    # node stacks, 15 nodes a panel)
    import sfcalc.engines as engines
    import sfcalc.path as path_module
    from sfcalc import tracemodel

    rng = rng_from_seed(8400)
    path = random_path(rng, random_block_model(rng), num_samples=7,
                       endpoint_flat=True)
    decomposed = []
    for module in (path_module, engines, tracemodel):
        def counted(model, mats, name=module.__name__, original=module.eigh_stack):
            decomposed.append((name, len(mats)))
            return original(model, mats)
        monkeypatch.setattr(module, "eigh_stack", counted)
    sf_crossing(path)
    sf_phillips(path)
    for call in _integral_calls(path):
        call()
    for scheme in SCHEMES:
        aps_index(SuspensionProblem(path=path, grid_size=32, scheme=scheme))
    SuspensionProblem(path=path, geometry="cylinder")
    nodes = [n for name, n in decomposed if name == "sfcalc.engines"]
    assert nodes and all(n % 15 == 0 for n in nodes)
    assert [(name, n) for name, n in decomposed if name != "sfcalc.engines"] \
        == [("sfcalc.path", len(path.us))]


def test_one_path_is_sampled_once_for_all_its_integrals(monkeypatch):
    # every integral below converges at the first bisection, so the first
    # node array (the initial panels and both halves of each) is the only
    # one: it is evaluated, decomposed and differentiated once, in that
    # order, for all five integrals, and the norm the appendix rescales by
    # is computed once for the path
    import sfcalc.engines as engines

    rng = rng_from_seed(8500)
    path = random_path(rng, random_block_model(rng), num_samples=7)
    nodes = 15 * 3 * (len(path.us) - 1)
    calls = []

    def counting(name, original, size=lambda args: len(args[-1])):
        def counted(*args, **kwargs):
            calls.append((name, size(args)))
            return original(*args, **kwargs)
        return counted

    for name in ("eval", "derivative"):
        monkeypatch.setattr(OperatorPath, name, counting(name, getattr(OperatorPath, name)))
    monkeypatch.setattr(engines, "eigh_stack", counting("eigh_stack", engines.eigh_stack))
    monkeypatch.setattr(np.linalg, "norm", counting(
        "norm", np.linalg.norm, size=lambda args: np.shape(args[0])))
    monkeypatch.setattr(engines, "_memo", (None, None))
    results = [sf_integral(path, s) for s in (0.5, 2.0, 8.0)]
    results += [sf_appendix(path, CHI_PROFILES[name](), rescale=True)
                for name in ("sine", "quintic")]
    assert path.max_sample_norm() == results[-1].diagnostics["rescale_factor"]
    assert [r.diagnostics["quadrature_panels"] for r in results] == [nodes / 15] * 5
    assert calls == [("eval", nodes), ("eigh_stack", nodes), ("derivative", nodes),
                     ("norm", (len(path.us), path.model.dim, path.model.dim))]


def test_integral_terms_equal_their_closed_forms():
    # by trace cyclicity the u-integral of tr(F' g'(F)) is tr g(F_1) - tr g(F_0):
    # the heat term is 1/2 sum w erf(sqrt(s) lambda) and the appendix term
    # 1/2 sum w chi(lambda / c), both taken between the endpoints
    for seed in range(20240, 20290):
        rng = rng_from_seed(seed)
        model = random_block_model(rng)
        path = random_path(rng, model, num_samples=7)

        def between(g):
            ends = [sum(w * np.sum(g(vals[i])) for (_, w), (vals, _)
                        in zip(model.blocks, path.spectra)) for i in (0, -1)]
            return 0.5 * (ends[1] - ends[0])

        for s in (0.5, 2.0, 8.0):
            got = sf_integral(path, s).diagnostics["integral_term"]
            exact = between(lambda lam: np.array([math.erf(math.sqrt(s) * x)
                                                  for x in lam]))
            assert abs(got - exact) <= 1e-8, (seed, s)
        for name in ("sine", "quintic"):
            chi = CHI_PROFILES[name]()
            result = sf_appendix(path, chi, rescale=True)
            scale = result.diagnostics["rescale_factor"]
            exact = between(lambda lam: chi(lam / scale))
            assert abs(result.diagnostics["integral_term"] - exact) <= 1e-9, (seed, name)


def test_appendix_rescale_matches_rescaled_samples():
    rng = rng_from_seed(8400)
    for interpolation in ("linear", "cubic"):
        for _ in range(4):
            model = random_block_model(rng)
            base = random_path(rng, model, num_samples=7)
            path = OperatorPath(model, [(u, base.sample(j))
                                        for j, u in enumerate(base.us)],
                                interpolation=interpolation)
            scale = path.max_sample_norm()
            assert scale > 1.0
            scaled = OperatorPath(model, [
                (u, BlockHermitian(model, path.sample(j).mat / scale))
                for j, u in enumerate(path.us)], interpolation=interpolation)
            for name in ("sine", "quintic"):
                chi = CHI_PROFILES[name]()
                got = sf_appendix(path, chi, rescale=True)
                ref = sf_appendix(scaled, chi)
                assert got.diagnostics["rescale_factor"] == scale
                assert abs(got.raw - ref.raw) <= 1e-13
                assert (got.diagnostics["quadrature_panels"]
                        == ref.diagnostics["quadrature_panels"])
                # the gap is F's own, as the crossing engine reports it
                gap = got.diagnostics["min_endpoint_gap"]
                assert gap == sf_crossing(path).diagnostics["min_endpoint_gap"]
                assert ref.diagnostics["min_endpoint_gap"] * scale \
                    == pytest.approx(gap, rel=1e-13)


# ---------------------------------------------------------------------------
# appendix formula

def test_chi_profiles_admissible():
    for name, factory in CHI_PROFILES.items():
        chi = factory()
        assert chi(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)
        assert chi.deriv(np.array([0.0]))[0] > 0


def test_bad_chi_rejected():
    with pytest.raises(ValidationError):
        ChiProfile(name="even", chi=lambda x: np.abs(x),
                   dchi=lambda x: np.sign(x), radius=3.0)


def test_appendix_single_crossing_any_profile():
    path = single_crossing_path()
    for name in CHI_PROFILES:
        res = sf_appendix(path, CHI_PROFILES[name]())
        assert res.value == 1.0
        assert abs(res.raw - 1.0) < 1e-9


def test_appendix_constant_path():
    res = sf_appendix(scalar_linear_path(0.5, 0.5), CHI_PROFILES["sine"]())
    assert res.value == 0.0


def test_appendix_chi_independence_and_crossing_agreement():
    sine = CHI_PROFILES["sine"]()
    quintic = CHI_PROFILES["quintic"]()
    for seed in range(6):
        rng = rng_from_seed(7700 + seed)
        model = random_block_model(rng)
        path = random_path(rng, model, num_samples=7)
        flow = sf_crossing(path).value
        a = sf_appendix(path, sine, rescale=True).raw
        b = sf_appendix(path, quintic, rescale=True).raw
        assert abs(a - b) < 1e-7
        assert abs(a - flow) < 1e-6


def test_appendix_norm_precondition():
    path = scalar_linear_path(-3.0, 3.0)
    with pytest.raises(PreconditionError):
        sf_appendix(path, CHI_PROFILES["sine"]())
    assert sf_appendix(path, CHI_PROFILES["sine"](), rescale=True).value == 1.0


@pytest.mark.parametrize("end", [-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 2e-9, -1e-6])
@pytest.mark.parametrize("start", [3.0, -3.0, 0.5, -0.5])
def test_engines_agree_at_an_endpoint_near_zero(start, end):
    # every engine decides the endpoint's sign by the band 1e-9 (1 + |F|)
    # on F itself, so a rescaled appendix path sees the same endpoint kernel
    path = scalar_linear_path(start, end)
    flow = sf_crossing(path).value
    for res in (sf_phillips(path), sf_integral(path, 2.0),
                sf_appendix(path, CHI_PROFILES["sine"](), rescale=True)):
        assert abs(res.raw - flow) < 1e-6, res.method


def test_appendix_rejects_frequency_model():
    with pytest.raises(ModelError):
        sf_appendix(dirac_path(), CHI_PROFILES["sine"]())


# ---------------------------------------------------------------------------
# cg bound

def test_cg_bound_zero_operator():
    model = WeightedBlockModel([(1, 1.0)])
    lhs, term_i, term_ii = cg_bound(model.zero(), 4.0)
    assert lhs == 0.0
    assert term_i == 0.0
    assert term_ii > 0.0


def test_cg_bound_single_eigenvalue():
    model = WeightedBlockModel([(1, 1.0)])
    op = BlockHermitian(model, [[1.0]])
    lhs, term_i, term_ii = cg_bound(op, 4.0)
    assert lhs == pytest.approx(2.0 * math.exp(-4.0), abs=1e-12)
    assert lhs == pytest.approx(0.03663127777746836, abs=1e-12)
    assert lhs <= term_i + term_ii


def test_cg_bound_domain():
    model = WeightedBlockModel([(1, 1.0)])
    with pytest.raises(DomainError):
        cg_bound(model.identity(), 1.0)


def test_cg_bound_random_spectra():
    for seed in range(10):
        rng = rng_from_seed(990 + seed)
        model = random_block_model(rng)
        op = random_path(rng, model, num_samples=3).eval(0.3)
        for s in (2.0, 4.0, 16.0):
            lhs, term_i, term_ii = cg_bound(op, s)
            assert lhs <= term_i + term_ii + 1e-12


# ---------------------------------------------------------------------------
# structural invariants across engines

def engine_values(path, s=2.0):
    chi = CHI_PROFILES["sine"]()
    return {
        "crossing": sf_crossing(path).value,
        "phillips": sf_phillips(path).value,
        "integral": sf_integral(path, s).raw,
        "appendix": sf_appendix(path, chi, rescale=True).raw,
    }


def test_antisymmetry_under_reversal():
    rng = rng_from_seed(31)
    model = random_block_model(rng)
    path = random_path(rng, model, num_samples=7)
    forward = engine_values(path)
    backward = engine_values(reverse(path))
    for name in forward:
        assert abs(forward[name] + backward[name]) < 1e-6


def test_direct_sum_additivity():
    rng = rng_from_seed(32)
    a = random_path(rng, random_block_model(rng), num_samples=5)
    b = random_path(rng, random_block_model(rng), num_samples=5)
    combined = engine_values(direct_sum(a, b))
    va = engine_values(a)
    vb = engine_values(b)
    for name in combined:
        assert abs(combined[name] - va[name] - vb[name]) < 1e-6


def test_reparametrization_invariance():
    rng = rng_from_seed(33)
    model = random_block_model(rng)
    path = random_path(rng, model, num_samples=7)
    warped = reparametrize(path, lambda t: t * t * (3.0 - 2.0 * t), num_samples=33)
    base = engine_values(path)
    other = engine_values(warped)
    for name in base:
        assert abs(base[name] - other[name]) < 1e-6


def test_conjugation_invariance_identity_endpoints():
    rng = rng_from_seed(34)
    model = random_block_model(rng)
    path = random_path(rng, model, num_samples=7)
    mats = random_unitary_path(rng, model, 7)
    rotated = conjugate(path, mats)
    base = engine_values(path)
    other = engine_values(rotated)
    for name in base:
        assert abs(base[name] - other[name]) < 1e-6


def test_homotopy_invariance_of_crossing():
    rng = rng_from_seed(35)
    model = random_block_model(rng)
    path = random_path(rng, model, num_samples=7)
    flow = sf_crossing(path).value
    bump = random_path(rng, model, num_samples=7)
    samples = []
    for j, u in enumerate(path.us):
        wiggle = math.sin(math.pi * float(u)) * 0.3
        samples.append((float(u), BlockHermitian(
            model, path.sample(j).mat + wiggle * bump.sample(j).mat)))
    perturbed = OperatorPath(model, samples)
    assert sf_crossing(perturbed).value == flow


def test_lattice_snapping_on_weighted_models():
    model = WeightedBlockModel([(1, 1.0), (1, 0.5)])
    path, expected = involution_path(model, [1, 1])
    assert expected == 1.5
    res = sf_integral(path, 2.0)
    assert res.value == 1.5
    assert res.diagnostics["lattice_step"] == 0.5
    assert abs(res.raw - 1.5) < 1e-8


def _profile(chi, dchi):
    return ChiProfile(name="probe", chi=chi, dchi=dchi, radius=3.0)


_SINE = CHI_PROFILES["sine"]()
ENGINE_GUARDS = {
    "profile-chi-1": (lambda: _profile(lambda x: 0.5 * _SINE.chi(x), _SINE.dchi),
                      ValidationError, r"must satisfy chi\(1\) = 1"),
    "profile-slope-0": (lambda: _profile(_SINE.chi, np.zeros_like), ValidationError,
                        r"needs chi'\(0\) > 0"),
    "profile-monotone": (lambda: _profile(lambda x: np.sin(2.5 * np.pi * x),
                                          lambda x: 2.5 * np.pi * np.cos(2.5 * np.pi * x)),
                         ValidationError, r"must be nondecreasing on \[-1, 1\]"),
    "profile-support": (lambda: _profile(lambda x: np.clip(x, -1.0, 1.0),
                                         lambda x: (np.abs(x) < 1.0).astype(float)),
                        ValidationError, r"is not supported in \[-3.0, 3.0\]"),
    "profile-derivative": (lambda: _profile(_SINE.chi, lambda x: 2.0 * _SINE.dchi(x)),
                           ValidationError, "disagrees with finite differences"),
    "eta-symbol-model": (lambda: eta_truncated(AffineSymbol(0.5), 1.0), ModelError,
                         "symbol eta needs the frequency model"),
    "integral-s": (lambda: sf_integral(single_crossing_path(), 0.0), DomainError,
                   "sf_integral requires s > 0"),
    # infinite s and a tolerance that is not positive and finite are refused
    # before any quadrature runs
    "integral-s-inf": (lambda: sf_integral(single_crossing_path(), math.inf),
                       DomainError, "sf_integral requires s > 0 and finite"),
    "integral-quad-tol": (lambda: sf_integral(single_crossing_path(), 2.0,
                                              quad_tol=math.nan),
                          DomainError, "positive finite tolerance, got nan"),
    "eta-s-inf": (lambda: eta_truncated(single_crossing_path().sample(0), math.inf),
                  DomainError, "eta_truncated requires s > 0 and finite"),
    "cg-s-inf": (lambda: cg_bound(single_crossing_path().sample(0), math.inf),
                 DomainError, "cg_bound requires s > 1 and finite"),
    "appendix-profile": (lambda: sf_appendix(single_crossing_path(), "sine"),
                         ValidationError, "sf_appendix needs a ChiProfile"),
    "crossing-frequency": (lambda: sf_crossing(dirac_path()), ModelError,
                           "sf_crossing is defined on weighted block models"),
}


@pytest.mark.parametrize("case", ENGINE_GUARDS)
def test_public_guards_raise_their_documented_errors(case):
    call, error, message = ENGINE_GUARDS[case]
    with pytest.raises(error, match=message):
        call()
