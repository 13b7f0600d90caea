"""Seeded property and agreement suites.

Each suite returns a list of ``(case, passed, detail)`` tuples; the CLI
renders them as a pass/fail table and the acceptance tests assert on them.
Seeds are fixed so results are reproducible.
"""

import time

from .apsindex import SuspensionProblem, aps_index
from .engines import CHI_PROFILES, sf_appendix, sf_crossing, sf_integral, sf_phillips
from .generators import random_block_model, random_path, rng_from_seed
from .geometry import signature_flow_scenario, standard_metric_paths

__all__ = ["engines_suite", "aps_suite", "geometry_suite", "run_suite",
           "SUITES"]


def engines_suite(num_seeds=50, s_grid=(0.5, 2.0, 8.0)):
    """Cross-engine agreement on random block-model paths with invertible
    endpoints, seeds from 20240 on: crossing == phillips exactly, integral
    and appendix within 1e-6 of crossing (all s, both cutoff profiles)."""
    chis = [CHI_PROFILES["sine"](), CHI_PROFILES["quintic"]()]
    results = []
    for seed in range(20240, 20240 + num_seeds):
        rng = rng_from_seed(seed)
        model = random_block_model(rng)
        path = random_path(rng, model, num_samples=7)
        crossing = sf_crossing(path)
        phillips = sf_phillips(path)
        ok = crossing.value == phillips.value
        worst = abs(crossing.raw - phillips.raw)
        for s in s_grid:
            integral = sf_integral(path, s)
            gap = abs(integral.raw - crossing.value)
            worst = max(worst, gap)
            ok = ok and gap < 1e-6
        for chi in chis:
            appendix = sf_appendix(path, chi, rescale=True)
            gap = abs(appendix.raw - crossing.value)
            worst = max(worst, gap)
            ok = ok and gap < 1e-6
        results.append((f"engine-agreement seed={seed}", ok,
                        f"flow={crossing.value} worst-gap={worst:.2e}"))
    return results


def aps_suite(num_seeds=30, grid_size=200):
    """Index equals crossing flow on endpoint-flat random paths, seeds from
    50310 on, both discretization schemes."""
    results = []
    for seed in range(50310, 50310 + num_seeds):
        rng = rng_from_seed(seed)
        model = random_block_model(rng, max_blocks=3, max_block_dim=3)
        while model.dim > 8:
            model = random_block_model(rng, max_blocks=3, max_block_dim=3)
        path = random_path(rng, model, num_samples=7, endpoint_flat=True)
        flow = sf_crossing(path).value
        ok = True
        detail = [f"flow={flow}"]
        for scheme in ("forward-upwind", "implicit-midpoint"):
            prob = SuspensionProblem(path=path, grid_size=grid_size, scheme=scheme)
            index = aps_index(prob)
            detail.append(f"{scheme}={index}")
            ok = ok and index == flow
        results.append((f"index-equals-flow seed={seed}", ok,
                        " ".join(detail)))
    return results


def geometry_suite():
    """Vanishing signature flow for the three n = 16 metric paths: every
    engine within 1e-6 of zero, index zero on 64 intervals, kernel trace
    constant equal to 2."""
    results = []
    for name, metric in standard_metric_paths(n=16).items():
        report = signature_flow_scenario(metric)
        values = [report["engines"]["crossing"].raw,
                  report["engines"]["phillips"].raw,
                  report["engines"]["appendix"].raw]
        values += [r.raw for r in report["engines"]["integral"].values()]
        worst = max(abs(v) for v in values)
        kernels_ok = all(abs(k - 2.0) < 1e-9 for k in report["kernel_traces"])
        ok = (worst < 1e-6 and report["aps_index"] == 0.0 and kernels_ok
              and report["lhs_monotone_decreasing"])
        results.append((f"signature-vanishing {name}", ok,
                        f"worst-engine={worst:.2e} index={report['aps_index']} "
                        f"kernel-constant={kernels_ok}"))
    return results


SUITES = {
    "engines": engines_suite,
    "aps": aps_suite,
    "geometry": geometry_suite,
}


def run_suite(suite_id):
    """Run one suite (or ``all``); returns (results, elapsed_seconds)."""
    if suite_id == "all":
        names = list(SUITES)
    elif suite_id in SUITES:
        names = [suite_id]
    else:
        raise KeyError(suite_id)
    start = time.perf_counter()
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results, time.perf_counter() - start


def format_table(results):
    lines = []
    width = max(len(case) for case, _, _ in results)
    for case, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {case.ljust(width)}  {detail}")
    n_fail = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
