"""The library calls the benchmark in ``perfbench/`` makes, pinned.

The benchmark runs the committed code of two checkouts with the same
``perfbench/`` scripts, so a signature or module attribute they rely on
must not change without them; a change fails here first.
"""

import ast
import importlib
import inspect
import os

import pytest

from sfcalc import apsindex, cli, engines, generators, tracemodel

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


# (function, positional arguments, keyword arguments) as perfbench calls it
CALLS = {
    "run_scenario": (cli.run_scenario, ("doc",), {"out_dir": "out", "threads": 1}),
    "load_scenario": (cli.load_scenario, ("scenario.json",), {}),
    "list_scenarios": (cli.list_scenarios, (), {}),
    "sf_crossing": (engines.sf_crossing, ("path",), {}),
    "sf_phillips": (engines.sf_phillips, ("path",), {}),
    "sf_integral": (engines.sf_integral, ("path", 0.5), {}),
    "sf_appendix": (engines.sf_appendix, ("path", "chi"), {"rescale": True}),
    "SuspensionProblem": (apsindex.SuspensionProblem, (), {
        "path": "path", "grid_size": 200, "scheme": "forward-upwind"}),
    "aps_index": (apsindex.aps_index, ("problem",), {}),
    "rng_from_seed": (generators.rng_from_seed, (1,), {}),
    "random_path": (generators.random_path, ("rng", "model"), {"num_samples": 7}),
    "random_path-flat": (generators.random_path, ("rng", "model"),
                         {"num_samples": 7, "endpoint_flat": True}),
    "WeightedBlockModel": (tracemodel.WeightedBlockModel, ([(1, 1.0)],), {}),
}


@pytest.mark.parametrize("name", CALLS)
def test_benchmark_calls_bind(name):
    function, args, kwargs = CALLS[name]
    inspect.signature(function).bind(*args, **kwargs)


def _resolved_attributes():
    """The (module, attribute) pairs of ``RESOLVED`` in perfbench/selftest.py."""
    with open(os.path.join(PERFBENCH, "selftest.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["RESOLVED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py has no RESOLVED list")


def test_benchmark_attributes_exist():
    pairs = _resolved_attributes()
    assert pairs
    for module, attribute in pairs:
        assert callable(getattr(importlib.import_module(module), attribute, None)), \
            f"{module}.{attribute}"
    for module, attribute in [("sfcalc.generators", "WEIGHT_CHOICES"),
                              ("sfcalc.engines", "CHI_PROFILES"),
                              ("sfcalc.cli", "_scenario_dir")]:
        assert hasattr(importlib.import_module(module), attribute), f"{module}.{attribute}"


def test_crossing_reports_the_refinement_depth():
    # perfbench/tracing.py sums this diagnostic over every traced run
    path = generators.single_crossing_path()
    assert "refinement_depth" in engines.sf_crossing(path).diagnostics
