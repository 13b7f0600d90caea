"""Circle signature operator, trivialization and the model scenarios."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sfcalc import verify
from sfcalc.errors import DomainError, ValidationError
from sfcalc.geometry import (METRIC_PROFILES, CircleMetricPath, build_signature,
                             dirac_family_scenario, engine_model,
                             signature_flow_scenario, standard_metric_paths,
                             trivialization, trivialized_path)
from sfcalc.tracemodel import eigh


def test_metric_path_validation():
    us = np.linspace(0.0, 1.0, 5)
    coeffs = np.ones((5, 9))
    with pytest.raises(ValidationError):
        CircleMetricPath(us, coeffs, n=7)          # odd resolution
    varying = coeffs.copy()
    varying[1, 1] = 0.5
    with pytest.raises(ValidationError):
        CircleMetricPath(us, varying, n=8)         # not flat at the start
    negative = coeffs.copy()
    negative[:, 0] = -1.0
    with pytest.raises(ValidationError):
        CircleMetricPath(us, negative, n=8)        # h not positive


def test_flat_circle_spectrum_oracle():
    # exact diagonalization in the Fourier basis: integer frequencies,
    # one copy per form degree, kernel of trace-dimension 2
    metrics = standard_metric_paths(n=8)
    metric = metrics["cos_ramp"]
    dec = eigh(trivialized_path(metric).sample(0))
    expected = sorted([k for k in range(-4, 5)] * 2)
    assert np.allclose(dec.eigenvalues, expected, atol=1e-9)


def test_chirality_and_gram_invariants_random_metric():
    # SignatureOperator validates tau^2 = 1 and Gram self-adjointness
    metric = standard_metric_paths(n=8)["mixed_quadratic"]
    for u in (0.0, 0.33, 0.77, 1.0):
        sig = build_signature(metric, u)
        assert np.linalg.norm(sig.tau @ sig.tau - np.eye(18)) < 1e-10 * 18
        # tau-symmetry on the basis: tau intertwines the two degree blocks,
        # so it commutes with tau d + d tau
        comm = sig.tau @ sig.matrix - sig.matrix @ sig.tau
        assert np.abs(comm).max() < 1e-10 * max(1.0, np.abs(sig.matrix).max())


def test_kernel_trace_dimension_constant():
    metric = standard_metric_paths(n=8)["cos_ramp"]
    path = trivialized_path(metric)
    for j in range(len(path.us)):
        dec = eigh(path.sample(j))
        assert float(np.sum(dec.weights[dec.kernel_mask()])) == 2.0


def test_spectrum_symmetric_about_zero():
    metric = standard_metric_paths(n=8)["mixed_quadratic"]
    path = trivialized_path(metric)
    for j in (0, len(path.us) // 2, len(path.us) - 1):
        lam = eigh(path.sample(j)).eigenvalues
        assert np.abs(np.sort(lam) + np.sort(-lam)[::-1]).max() < 1e-8


def test_trivialization_gram_identity():
    # includes the conformal bump 1 + 0.3 u sin x
    def coeff_fn(v):
        c = np.zeros(9)
        c[0] = 1.0
        c[2] = 0.3 * v
        return c

    ts = np.linspace(0.0, 1.0, 9)
    from sfcalc.path import flat_profile
    coeffs = np.stack([coeff_fn(float(flat_profile(t))) for t in ts])
    metric = CircleMetricPath(ts, coeffs, n=8)
    g0 = build_signature(metric, 0.0).gram
    for u in (0.0, 0.5, 1.0):
        gu = build_signature(metric, u).gram
        mat = trivialization(metric, u)
        resid = np.linalg.norm(mat.T @ g0 @ mat - gu) / np.linalg.norm(gu)
        assert resid < 1e-9
    assert np.linalg.norm(trivialization(metric, 0.0) - np.eye(18)) < 1e-9


def test_trivialization_constant_metric_is_identity():
    us = np.linspace(0.0, 1.0, 5)
    coeffs = np.tile(np.concatenate([[1.2], np.zeros(8)]), (5, 1))
    metric = CircleMetricPath(us, coeffs, n=8)
    for u in (0.0, 0.4, 1.0):
        assert np.linalg.norm(trivialization(metric, u) - np.eye(18)) < 1e-9


def test_signature_scenario_constant_metric_all_zero():
    us = np.linspace(0.0, 1.0, 5)
    coeffs = np.tile(np.concatenate([[1.0], np.zeros(8)]), (5, 1))
    metric = CircleMetricPath(us, coeffs, n=8)
    report = signature_flow_scenario(metric, s_grid=(2.0, 4.0), aps_grid=32)
    assert report["engines"]["crossing"].value == 0.0
    assert report["engines"]["phillips"].value == 0.0
    assert report["engines"]["appendix"].value == 0.0
    assert all(r.value == 0.0 for r in report["engines"]["integral"].values())
    assert report["aps_index"] == 0.0


def test_signature_scenario_full_report_small():
    metric = standard_metric_paths(n=8)["loop_sin"]
    report = signature_flow_scenario(metric, s_grid=(2.0, 4.0, 16.0),
                                     aps_grid=48)
    for name in ("crossing", "phillips", "appendix"):
        assert abs(report["engines"][name].raw) < 1e-6
    for res in report["engines"]["integral"].values():
        assert abs(res.raw) < 1e-6
    assert report["aps_index"] == 0.0
    assert report["conjugation_residual"] < 1e-8
    assert report["lhs_monotone_decreasing"]
    assert all(k == 2.0 for k in report["kernel_traces"])
    # ||P - Q||_2 <= 1 for orthogonal projections, one jump per sample step
    jumps = report["projection_jumps"]
    assert len(jumps) == len(trivialized_path(metric).us) - 1
    assert all(0.0 <= j <= 1.0 for j in jumps)


def test_aps_index_stable_under_grid_doubling_for_signature():
    metric = standard_metric_paths(n=8)["cos_ramp"]
    from sfcalc.apsindex import SuspensionProblem, aps_index
    prob = SuspensionProblem(path=trivialized_path(metric), grid_size=32)
    assert aps_index(prob) == 0.0
    assert aps_index(replace(prob, grid_size=64)) == 0.0


def test_geometry_suite_passes_at_n_8(monkeypatch):
    # the suite's three metric paths at n = 8 instead of 16
    monkeypatch.setattr(verify, "standard_metric_paths",
                        lambda n: standard_metric_paths(n=8))
    results = verify.geometry_suite()
    assert [case for case, _, _ in results] == [
        f"signature-vanishing {name}" for name in METRIC_PROFILES]
    assert all(ok for _, ok, _ in results), results


def test_dirac_family_window():
    report = dirac_family_scenario((-1.0, 1.0))
    assert report["sf_phillips"].value == pytest.approx(1.0 / math.pi, abs=1e-7)
    assert report["swept_window_trace"] == pytest.approx(1.0 / math.pi, abs=1e-9)
    assert report["max_kernel_trace"] < 1e-8


def test_dirac_family_trivial_and_wide():
    assert dirac_family_scenario((0.0, 0.0))["sf_phillips"].value == 0.0
    wide = dirac_family_scenario((-2.0, 2.0))
    assert wide["sf_phillips"].value == pytest.approx(2.0 / math.pi, abs=1e-7)


GEOMETRY_GUARDS = {
    "shape": (lambda: CircleMetricPath(np.linspace(0.0, 1.0, 5), np.ones((5, 8)), n=8),
              ValidationError, r"shape \(5, 8\) does not match \(5, 9\)"),
    "u-order": (lambda: CircleMetricPath([0.0, 0.5, 0.25, 1.0], np.ones((4, 9)), n=8),
                ValidationError, "increase strictly from 0 to 1"),
    "sample-count": (lambda: CircleMetricPath([0.0, 0.5, 1.0], np.ones((3, 9)), n=8),
                     ValidationError, "at least 4 u-samples"),
    "coefficients-domain": (lambda: standard_metric_paths(n=4)["cos_ramp"].coefficients(1.5),
                            DomainError, r"metric parameter 1.5 outside \[0, 1\]"),
}


@pytest.mark.parametrize("case", GEOMETRY_GUARDS)
def test_public_guards_raise_their_documented_errors(case):
    call, error, message = GEOMETRY_GUARDS[case]
    with pytest.raises(error, match=message):
        call()
