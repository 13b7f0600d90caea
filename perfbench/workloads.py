"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs one case at a time
through sfcalc's public functions, and checks the result the way the
acceptance criteria do.  ``run_case`` returns ``(ok, values)``: ``values``
are the exact result values, compared bit for bit between traced and
untraced passes.
"""

import json
import os
import shutil
import tempfile

from sfcalc import apsindex, cli, engines, generators, tracemodel

S_GRID = (0.5, 2.0, 8.0)
CHI_NAMES = ("sine", "quintic")


def _exact(values):
    return tuple(float(v).hex() for v in values)


def block_models(rng, shapes, count):
    """``count`` block models, cycling through ``shapes`` (block dimensions).

    The seed draws each model's block order and its weights from the
    generators' weight choices, as ``random_block_model`` does.  Fixing the
    shapes of every round means every seed measures the same mix of matrix
    sizes, so the spread between seeds is not a spread in problem size.
    """
    models = []
    while len(models) < count:
        for shape in shapes:
            blocks = [(int(d), float(rng.choice(generators.WEIGHT_CHOICES)))
                      for d in rng.permutation(shape)]
            models.append(tracemodel.WeightedBlockModel(blocks))
    return models[:count]


class EngineAgreement:
    """One case: one seeded random block-model path (7 samples) through all
    four engines, checked as criterion 1 checks it.

    Integral plus appendix take about 98% of engine time, with thousands of
    ``eigh`` calls per path on blocks of dimension at most 4, and the index
    does no work: batched spectral sampling shows up here.  The shapes are
    a Latin design over ``random_block_model``'s defaults: 1 to 3 blocks,
    each of dimension 1 to 4, every count and dimension equally often.
    """

    name = "engine_agreement"
    shapes = ((1,), (2,), (3,), (4,),
              (1, 2), (2, 3), (3, 4), (4, 1),
              (1, 2, 3), (2, 3, 4), (3, 4, 1), (4, 1, 2))
    round_size = len(shapes)
    min_cases = 5 * len(shapes)   # whole rounds, at least 10 cases beyond p80
    pool_size = min_cases         # distinct cases built at set-up, then cycled
    tail_percentile = 80
    trace_cases = len(shapes)
    layers = ("generators.random_path", "path.eval", "path.derivative",
              "tracemodel.BlockHermitian", "tracemodel.eigh", "lapack.eigh",
              "quadrature", "quadrature.integrand", "engines.sf_crossing",
              "engines.sf_phillips", "engines.sf_integral",
              "engines.sf_appendix")

    def build(self, seed, count):
        rng = generators.rng_from_seed(seed)
        chis = tuple(engines.CHI_PROFILES[name]() for name in CHI_NAMES)
        return [(generators.random_path(rng, model, num_samples=7), chis)
                for model in block_models(rng, self.shapes, count)]

    def label(self, case):
        return self.name

    def run_case(self, case):
        path, chis = case
        crossing = engines.sf_crossing(path)
        phillips = engines.sf_phillips(path)
        integral = [engines.sf_integral(path, s).raw for s in S_GRID]
        appendix = [engines.sf_appendix(path, chi, rescale=True).raw for chi in chis]
        flow = crossing.value
        ok = (flow == phillips.value
              and all(abs(v - flow) < 1e-6 for v in integral + appendix))
        return ok, _exact([flow, phillips.value] + integral + appendix)


class IndexInterval:
    """One case: one endpoint-flat path through the interval-APS index at
    M = 200 under both schemes, compared with the crossing flow.

    Assembly and the dense SVD split the time; the engines take about 1%.
    The shapes stay within the ``aps_suite`` limits: at most 3 blocks of
    dimension at most 3, total dimension at most 8.
    """

    name = "index_interval"
    shapes = ((1,), (3,), (1, 2), (2, 3), (1, 1, 2), (1, 2, 3))
    round_size = len(shapes)
    min_cases = 7 * len(shapes)   # whole rounds, at least 10 cases beyond p75
    pool_size = min_cases
    tail_percentile = 75
    trace_cases = len(shapes)
    grid_size = 200
    tolerance = 1e-9
    layers = ("generators.random_path", "path.eval", "path.flatten_endpoints",
              "tracemodel.BlockHermitian", "tracemodel.eigh", "lapack.eigh",
              "engines.sf_crossing", "apsindex.aps_index", "lapack.svd")

    def build(self, seed, count):
        rng = generators.rng_from_seed(seed)
        return [generators.random_path(rng, model, num_samples=7, endpoint_flat=True)
                for model in block_models(rng, self.shapes, count)]

    def label(self, case):
        return self.name

    def run_case(self, path):
        flow = engines.sf_crossing(path).value
        values = [flow]
        ok = True
        for scheme in ("forward-upwind", "implicit-midpoint"):
            prob = apsindex.SuspensionProblem(path=path, grid_size=self.grid_size,
                                              scheme=scheme)
            index = apsindex.aps_index(prob)
            values.append(index)
            ok = ok and abs(index - flow) <= self.tolerance
        return ok, _exact(values)


class ScenarioRun:
    """One case: one bundled scenario through ``cli.run_scenario(threads=1)``
    into a temporary directory, exactly as ``sfcalc run`` does it.

    The documents are used as shipped, so the seed does not change them.
    ``circle_signature`` has 17-dimensional blocks, ``single_crossing`` two
    SVDs of about 1800 rows: LAPACK rather than Python overhead dominates.

    A pass takes 20 to 30 s, so an untraced run makes one, and the CSV
    value columns are checked against the first run of the same sources in
    this checkout, kept in ``reference_path``.
    """

    name = "scenario_run"
    round_size = 5
    min_cases = 5
    tail_percentile = None   # too few cases for a percentile with 10 beyond
    trace_cases = 5
    layers = ("generators.random_path", "generators.involution_path",
              "generators.single_crossing_path", "path.eval",
              "path.derivative", "path.flatten_endpoints",
              "tracemodel.BlockHermitian", "tracemodel.eigh", "lapack.eigh",
              "quadrature", "quadrature.integrand", "engines.sf_crossing",
              "engines.sf_phillips", "engines.sf_integral",
              "engines.sf_appendix", "apsindex.aps_index", "lapack.svd",
              "geometry.standard_metric_paths", "geometry.trivialized_path",
              "cli.run_scenario")

    def __init__(self, out_root, reference_path):
        self.out_root = out_root
        self.reference_path = reference_path
        self.reference = {}
        if os.path.exists(reference_path):
            with open(reference_path, encoding="utf-8") as fh:
                self.reference = {k: tuple(v) for k, v in json.load(fh).items()}

    @property
    def pool_size(self):
        return len(cli.list_scenarios())

    def build(self, seed, count):
        names = cli.list_scenarios()
        docs = [cli.load_scenario(os.path.join(cli._scenario_dir(), name))
                for name in names]
        return [docs[i % len(docs)] for i in range(count)]

    def label(self, doc):
        return doc["name"]

    def run_case(self, doc):
        os.makedirs(self.out_root, exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix="scenario-", dir=self.out_root)
        try:
            _, code = cli.run_scenario(doc, out_dir=out_dir, threads=1)
            with open(os.path.join(out_dir, f"{doc['name']}.csv"), encoding="utf-8") as fh:
                rows = [line.rstrip("\n").split(",") for line in fh]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        runtime = rows[0].index("runtime_ms")
        values = tuple(",".join(r[:runtime] + r[runtime + 1:]) for r in rows)
        if doc["name"] not in self.reference:
            self.reference[doc["name"]] = values
            with open(self.reference_path, "w", encoding="utf-8") as fh:
                json.dump(self.reference, fh, indent=1)
        return code == 0 and values == self.reference[doc["name"]], values


def make(name, out_root, reference_path):
    if name == EngineAgreement.name:
        return EngineAgreement()
    if name == IndexInterval.name:
        return IndexInterval()
    if name == ScenarioRun.name:
        return ScenarioRun(out_root, reference_path)
    raise KeyError(name)
