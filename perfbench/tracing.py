"""Outside-in tracing of sfcalc's layers.

Each layer boundary is a public function of one ``sfcalc`` module.  A module
that imported the function by name (``from .tracemodel import eigh``) holds
its own reference, so wrapping ``sfcalc.tracemodel.eigh`` alone records
nothing for the callers in ``engines``.  :meth:`Tracer.install` therefore
replaces the function at every module attribute that refers to it, and
:meth:`Tracer.uninstall` puts the originals back.

A span records the boundary's name, start, end, parent span and case id.
Spans live in compact arrays until the pass ends.  Counts that are derived
from argument shapes (SVD operation counts and bytes, the rows given to
``eigh``) are computed, not measured.
"""

import sys
import time
from array import array
from collections import Counter

import numpy as np

# Span names, in report order.  ``lapack.*`` are the numpy.linalg entry points
# that the library calls explicitly; the SVD numpy runs inside
# ``np.linalg.norm(x, 2)`` is not visible from outside and is not counted.
SPANS = (
    "generators.random_path", "generators.involution_path", "generators.single_crossing_path",
    "path.eval", "path.derivative", "path.flatten_endpoints",
    "tracemodel.BlockHermitian", "tracemodel.eigh", "lapack.eigh",
    "quadrature", "quadrature.integrand",
    "engines.sf_crossing", "engines.sf_phillips", "engines.sf_integral",
    "engines.sf_appendix",
    "apsindex.aps_index", "lapack.svd",
    "geometry.standard_metric_paths", "geometry.trivialized_path",
    "cli.run_scenario",
)

# Extra per-layer metrics: name -> unit.
EXTRAS = {
    "tracemodel.eigh.rows": "count",
    "tracemodel.eigh.overhead_s": "s",
    "quadrature.panels": "count",
    "quadrature.nodes": "count",
    "engines.sf_crossing.refinement_depth": "count",
    "lapack.svd.max_rows": "count",
    "lapack.svd.max_mb": "MB",
    "lapack.svd.flops_computed": "flop",
}

# Metrics that must repeat exactly when the same inputs are traced again.
COMPUTED = ("tracemodel.eigh.rows", "quadrature.panels", "quadrature.nodes",
            "engines.sf_crossing.refinement_depth", "lapack.svd.max_rows",
            "lapack.svd.max_mb", "lapack.svd.flops_computed")


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPANS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s",
                      f"{name}.self_s": "s", f"{name}.errors": "count"})
    units.update(EXTRAS)
    units["trace_overhead_ratio"] = "ratio"
    return units


def svd_flops(m, n, complex_entries):
    """Operation count of a singular-values-only SVD of an m x n matrix.

    Golub and Van Loan's count for Householder bidiagonalisation,
    4 m n^2 - 4 n^3 / 3 with m >= n; a complex operation counts as four real
    ones.  The bidiagonal singular-value iteration is O(n^2) and omitted.
    """
    m, n = max(m, n), min(m, n)
    flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    return 4.0 * flops if complex_entries else flops


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.names = list(SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")
        self.error = array("b")
        self.counts = Counter()
        self.current_case = -1
        self._stack = []
        self._depth = Counter()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args, kwargs)`` may replace the arguments; ``after(args,
        kwargs, result)`` records counts once the call has returned.
        """
        nid = self._ids[name]
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.case.append(tracer.current_case)
            tracer.nested.append(tracer._depth[nid] > 0)
            tracer.error.append(0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(sid)
            tracer._depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[sid] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer._depth[nid] -= 1
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Patch every ``sfcalc`` module attribute that refers to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sfcalc" or mod_name.startswith("sfcalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def install(self):
        """Wrap every layer boundary; undo with :meth:`uninstall`."""
        import numpy.linalg
        from sfcalc import (apsindex, cli, engines, generators, geometry, path,
                            quadrature, tracemodel)

        functions = [
            (generators.random_path, "generators.random_path", {}),
            (generators.involution_path, "generators.involution_path", {}),
            (generators.single_crossing_path, "generators.single_crossing_path", {}),
            (path.flatten_endpoints, "path.flatten_endpoints", {}),
            (tracemodel.eigh, "tracemodel.eigh", {"after": self._after_eigh}),
            (quadrature.adaptive_gauss_legendre, "quadrature",
             {"before": self._before_quadrature, "after": self._after_quadrature}),
            (engines.sf_crossing, "engines.sf_crossing", {"after": self._after_crossing}),
            (engines.sf_phillips, "engines.sf_phillips", {}),
            (engines.sf_integral, "engines.sf_integral", {}),
            (engines.sf_appendix, "engines.sf_appendix", {}),
            (apsindex.aps_index, "apsindex.aps_index", {}),
            (geometry.standard_metric_paths, "geometry.standard_metric_paths", {}),
            (geometry.trivialized_path, "geometry.trivialized_path", {}),
            (cli.run_scenario, "cli.run_scenario", {}),
        ]
        for original, name, hooks in functions:
            self._replace_everywhere(original, self.wrap(name, original, **hooks))
        self._replace_attr(path.OperatorPath, "eval", "path.eval")
        self._replace_attr(path.OperatorPath, "derivative", "path.derivative")
        self._replace_attr(tracemodel.BlockHermitian, "__init__",
                           "tracemodel.BlockHermitian")
        self._replace_attr(numpy.linalg, "eigh", "lapack.eigh")
        self._replace_attr(numpy.linalg, "svd", "lapack.svd", after=self._after_svd)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- count hooks -------------------------------------------------------

    # sfcalc passes the operator, the integrand and the matrix positionally.

    def _after_eigh(self, args, kwargs, result):
        self.counts["tracemodel.eigh.rows"] += args[0].model.dim

    def _before_quadrature(self, args, kwargs):
        f = args[0]
        if not hasattr(f, "__wrapped__"):  # the b < a recursion passes it back in
            f = self._integrand(f)
        return (f,) + args[1:], kwargs

    def _integrand(self, f):
        def count_nodes(args, kwargs, result):
            self.counts["quadrature.nodes"] += int(np.size(args[0]))
        return self.wrap("quadrature.integrand", f, after=count_nodes)

    def _after_quadrature(self, args, kwargs, result):
        if self._depth[self._ids["quadrature"]] == 0:  # outermost call only
            self.counts["quadrature.panels"] += int(result[2])

    def _after_crossing(self, args, kwargs, result):
        self.counts["engines.sf_crossing.refinement_depth"] += int(
            result.diagnostics["refinement_depth"])

    def _after_svd(self, args, kwargs, result):
        mat = np.asarray(args[0])
        m, n = mat.shape[-2:]
        batch = int(np.prod(mat.shape[:-2], dtype=np.int64))
        counts = self.counts
        counts["lapack.svd.flops_computed"] += batch * svd_flops(m, n, np.iscomplexobj(mat))
        counts["lapack.svd.max_rows"] = max(counts["lapack.svd.max_rows"], m)
        counts["lapack.svd.max_mb"] = max(counts["lapack.svd.max_mb"], mat.nbytes / 1e6)

    # -- reduction ---------------------------------------------------------

    def arrays(self):
        """The recorded spans as numpy arrays."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "case": np.frombuffer(self.case, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }

    def metrics(self):
        """Per-layer metrics of the recorded pass.

        ``<name>.s`` is busy time: the summed duration of spans with no
        enclosing span of the same name.  ``<name>.self_s`` is each span's
        duration minus the durations of its direct children.
        """
        spans = self.arrays()
        ids, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        outer = spans["nested"] == 0
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        errors = np.bincount(ids, weights=spans["error"], minlength=k)

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(busy[i])
            out[f"{name}.self_s"] = float(own[i])
            out[f"{name}.errors"] = int(errors[i])
        for name in EXTRAS:
            out[name] = self.counts[name]
        # eigh time outside LAPACK: only LAPACK calls made by tracemodel.eigh
        eigh_id, lapack_id = self._ids["tracemodel.eigh"], self._ids["lapack.eigh"]
        inside = (ids == lapack_id) & has_parent
        inside &= ids[np.where(has_parent, parent, 0)] == eigh_id
        out["tracemodel.eigh.overhead_s"] = float(busy[eigh_id] - dur[inside].sum())
        return out
