"""Self-test of the benchmark's tracing.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Installing the tracer replaces each wrapped function at every sfcalc
   module that imported it by name (``sfcalc.cli.aps_index``,
   ``sfcalc.engines.eigh``, ...), and uninstalling restores every attribute.
2. One short traced run per workload is correct: every layer the workload
   lists records at least one call, traced and untraced passes give
   bit-identical result values, and the computed counts repeat exactly
   between traced passes.

Exits 0 when every check passes.  Takes about a minute and a half.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

# (module, attribute) pairs a caller resolves at call time.
RESOLVED = [
    ("sfcalc.verify", "sf_integral"), ("sfcalc.cli", "sf_crossing"),
    ("sfcalc.geometry", "sf_appendix"), ("sfcalc.engines", "eigh"),
    ("sfcalc.apsindex", "eigh"), ("sfcalc.geometry", "eigh"),
    ("sfcalc.generators", "eigh"), ("sfcalc.cli", "aps_index"),
    ("sfcalc.verify", "aps_index"), ("sfcalc.cli", "trivialized_path"),
    ("sfcalc.cli", "random_path"), ("sfcalc.generators", "flatten_endpoints"),
    ("sfcalc.engines", "adaptive_gauss_legendre"),
    ("sfcalc.tracemodel", "adaptive_gauss_legendre"),
]


def check_patching():
    import importlib

    import numpy.linalg
    import sfcalc.verify  # noqa: F401  (imports every layer)
    from sfcalc.path import OperatorPath
    from sfcalc.tracemodel import BlockHermitian

    targets = [(importlib.import_module(m), a) for m, a in RESOLVED]
    targets += [(OperatorPath, "eval"), (OperatorPath, "derivative"),
                (BlockHermitian, "__init__"), (numpy.linalg, "eigh"),
                (numpy.linalg, "svd")]
    before = [getattr(owner, attr) for owner, attr in targets]
    failures = []
    with Tracer():
        for (owner, attr), original in zip(targets, before):
            wrapped = getattr(owner, attr)
            if getattr(wrapped, "__wrapped__", None) is not original:
                failures.append(f"{owner.__name__}.{attr} is not wrapped")
    for (owner, attr), original in zip(targets, before):
        if getattr(owner, attr) is not original:
            failures.append(f"{owner.__name__}.{attr} was not restored")
    return failures


def main():
    failures = check_patching()
    for name in run.WORKLOADS:
        record = run.run_workload(name, seed=1, seconds=1, trace=1)
        failures += [f"{name}: {p}" for p in record["detail"]["problems"]]
        if record["failed"]:
            failures.append(f"{name}: {record['failed']} failed cases")
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
