"""Scenario runner and verification CLI.

``sfcalc run <scenario.json>`` executes the engines and index solver a
scenario requests, writes one CSV row per engine and s-grid point plus a
human-readable run log, and exits 0 only when every agreement assertion in
the scenario holds.  ``sfcalc verify <suite>`` runs the seeded property
suites.  Scenario documents are the reproducibility unit: identical
scenario and seed give identical result values.
"""

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .apsindex import (GEOMETRIES, SCHEMES, SuspensionProblem, aps_index,
                       physical_memory)
from .engines import CHI_PROFILES, sf_appendix, sf_crossing, sf_integral, sf_phillips
from .errors import NumericError, SfcalcError, ValidationError
from .generators import (dirac_path, involution_path, random_path,
                         rng_from_seed, single_crossing_path)
from .geometry import METRIC_PROFILES, standard_metric_paths, trivialized_path
from .path import OperatorPath, flatten_endpoints
from .tracemodel import BlockHermitian, FrequencyModel, WeightedBlockModel
from .verify import SUITES, format_table, run_suite

CSV_COLUMNS = ("scenario", "engine", "parameter_s", "value",
               "error_estimate", "runtime_ms", "seed")
SCHEMA_VERSION = 1
ENGINES = ("crossing", "phillips", "integral", "appendix")


class ScenarioError(ValidationError):
    pass


@dataclass
class RunRecord:
    """Everything one scenario run produced."""

    scenario: str
    engine_results: dict = field(default_factory=dict)
    aps_index: float = None
    agreement: list = field(default_factory=list)
    wall_clock: float = 0.0
    version: str = __version__
    seed: object = None
    assertion_failures: list = field(default_factory=list)


def _rule(text, test):
    """A check of one field value: ``test(value)`` is False on bad input and
    never raises, and ``test.text`` ends the sentence "<field> must be ..."."""
    test.text = text
    return test


def _is_number(value):
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _integer(least):
    return _rule(f"an integer >= {least}", lambda v: isinstance(v, int)
                 and not isinstance(v, bool) and v >= least)


def _one_of(names):
    names = tuple(sorted(names))
    return _rule(f"one of {', '.join(names)}",
                 lambda v: isinstance(v, str) and v in names)


def _optional(rule):
    return _rule(f"null or {rule.text}", lambda v: v is None or rule(v))


def _list_of(rule):
    return _rule(f"a list, each item {rule.text}",
                 lambda v: isinstance(v, list) and all(rule(x) for x in v))


_NUMBER = _rule("a finite number", _is_number)
_POSITIVE = _rule("a positive number", lambda v: _is_number(v) and v > 0)
_NONNEGATIVE = _rule("a number >= 0", lambda v: _is_number(v) and v >= 0)
_BOOLEAN = _rule("true or false", lambda v: isinstance(v, bool))
_THRESHOLD = _rule("a positive number below 0.1", lambda v: _POSITIVE(v) and v < 0.1)
_FILE_NAME = _rule("a plain file name inside --out", lambda v: isinstance(v, str)
                   and v not in ("", ".", "..") and os.path.basename(v) == v and "\0" not in v)
_BLOCKS = _rule(
    "a nonempty list of [dim, weight] pairs, dim an integer >= 1 and weight a "
    "positive number", lambda v: isinstance(v, list) and len(v) > 0 and all(
        isinstance(b, list) and len(b) == 2 and _integer(1)(b[0]) and _POSITIVE(b[1])
        for b in v))
_SAMPLES = _rule("a list of {'u': number, 'matrix': nested lists}, with no other key",
                 lambda v: isinstance(v, list) and all(
                     isinstance(item, dict) and set(item) == {"u", "matrix"}
                     and _is_number(item["u"]) and isinstance(item["matrix"], list)
                     for item in v))
NO_DEFAULT = object()  # in place of a default: the table gives none

# The fields of the untyped sections as (value a run uses when it is absent,
# rule); a nested dict is a section of the document.  The output names have
# no table default: _with_defaults names them after the scenario.
FIELDS = {
    "schema": (NO_DEFAULT, _rule(f"the integer {SCHEMA_VERSION}",
                                 lambda v: type(v) is int and v == SCHEMA_VERSION)),
    "name": (NO_DEFAULT, _rule("a nonempty string", lambda v: isinstance(v, str) and v != "")),
    "seed": (None, _optional(_integer(0))),
    "engines": ([], _list_of(_one_of(ENGINES))),
    "engine_params": {"s_grid": ([0.5, 2.0, 8.0], _list_of(_POSITIVE)),
                      "chi": (["sine"], _list_of(_one_of(CHI_PROFILES)))},
    "aps": {"enabled": (False, _BOOLEAN), "M": (200, _integer(16)),
            "scheme": ("forward-upwind", _one_of(SCHEMES)),
            "geometry": ("interval-APS", _one_of(GEOMETRIES)),
            "L": (None, _optional(_POSITIVE)), "theta": (1e-7, _THRESHOLD)},
    "assertions": {"pairwise_agreement": (None, _optional(_NONNEGATIVE)),
                   "expected_value": (None, _optional(_NUMBER)),
                   "value_tolerance": (1e-9, _NONNEGATIVE),
                   "aps_matches_crossing": (False, _BOOLEAN)},
    "output": {"csv": (NO_DEFAULT, _FILE_NAME), "log": (NO_DEFAULT, _FILE_NAME)},
}
# The engines defined on the frequency model; the index is not.
FREQUENCY_ENGINES = ("phillips", "integral")


# One type of a typed section: the fields it reads, in the shape of FIELDS;
# ``build``, which reads them; ``check(doc)``, the checks that span sections,
# run once every field has passed its rule; and, for a path, its model type.
Kind = namedtuple("Kind", "fields build check model", defaults=(lambda doc: None, None))


def _require(cond, message):
    if not cond:
        raise ScenarioError(message)


def _require_samples_fit(rows, dim):
    """Refuse a path whose stacked samples, ``rows`` complex dim x dim
    matrices, would not fit in physical memory."""
    need, memory = 16 * rows * dim * dim, physical_memory()
    _require(need <= memory,
             f"the path's samples need {rows} rows of {dim} x {dim} complex "
             f"entries, {need / 2 ** 30 if need < 2 ** 1000 else math.inf:.1f} "
             f"GiB against {memory / 2 ** 30:.1f} GiB of physical memory")


def _check_frequency(doc):
    _require(all(e in FREQUENCY_ENGINES for e in doc["engines"]),
             f"the frequency model runs only the engines {FREQUENCY_ENGINES}")
    _require(not doc["aps"]["enabled"],
             "the index needs a weighted block model, not the frequency model")


def _check_explicit(doc):
    """Refuse a sample matrix that does not read as a real dim x dim array of
    numbers, or a dim x dim array of [re, im] pairs, dim the model's."""
    dim = sum(n for n, _ in doc["model"]["blocks"])
    for item in doc["path"]["samples"]:
        try:
            cells = np.asarray(item["matrix"], dtype=object)
        except ValueError:
            cells = np.empty(0)
        _require(cells.shape in ((dim, dim), (dim, dim, 2))
                 and all(_is_number(x) for x in cells.flat),
                 f"path.samples must hold {dim}x{dim} matrices of numbers "
                 "(optionally of [re, im] pairs)")


def _explicit_path(cfg, model, seed):
    samples = []
    for item in cfg["samples"]:
        arr = np.asarray(item["matrix"], dtype=float)
        mat = arr[..., 0] + 1j * arr[..., 1] if arr.ndim == 3 else arr.astype(complex)
        samples.append((float(item["u"]), BlockHermitian(model, mat)))
    return OperatorPath(model, samples, interpolation=cfg["interpolation"])


def _involution_path(params, model, seed):
    rng = rng_from_seed(seed) if seed is not None else None
    path, _ = involution_path(model, params["minus_dims"], rng=rng)
    return flatten_endpoints(path, margin=0.12, num_samples=41) if params["flatten"] else path


def _random_generator(endpoint_flat):
    return Kind({"num_samples": (7, _integer(2))},
                lambda params, model, seed: random_path(
                    rng_from_seed(seed), model, num_samples=params["num_samples"],
                    endpoint_flat=endpoint_flat),
                lambda doc: _require(doc["seed"] is not None,
                                     "random generators require an integer 'seed'"))


# One entry per model type, path type (path.type) and generator (path.name).
# The builders look up the constructors on this module when they run, so a
# tracer that patches them here sees every call.
MODELS = {
    "weighted_blocks": Kind(
        {"blocks": (NO_DEFAULT, _BLOCKS)},
        lambda cfg: WeightedBlockModel([(int(n), float(w)) for n, w in cfg["blocks"]])),
    "frequency": Kind(
        {"rho": (1.0 / (2.0 * math.pi), _NONNEGATIVE), "xi_max": (50.0, _POSITIVE)},
        lambda cfg: FrequencyModel(rho=float(cfg["rho"]), xi_max=float(cfg["xi_max"])),
        _check_frequency),
    "circle_metric": Kind(
        {"n": (16, _rule("an even integer >= 4", lambda v: _integer(4)(v) and v % 2 == 0)),
         "profile": ("cos_ramp", _one_of(METRIC_PROFILES))},
        lambda cfg: standard_metric_paths(n=int(cfg["n"]))[cfg["profile"]],
        lambda doc: _require_samples_fit(1, 2 * (doc["model"]["n"] + 1))),
}
GENERATORS = {
    "single_crossing": Kind(
        {"num_samples": (9, _integer(2))},
        lambda params, model, seed: single_crossing_path(num_samples=params["num_samples"]),
        lambda doc: _require(doc["model"]["blocks"] == [[1, 1.0]],
                             "single_crossing paths need model.blocks [[1, 1.0]]")),
    "involution": Kind(
        {"minus_dims": (NO_DEFAULT, _list_of(_integer(0))), "flatten": (True, _BOOLEAN)},
        _involution_path,
        lambda doc: _require(
            len(doc["path"]["params"]["minus_dims"]) == len(doc["model"]["blocks"]),
            "path.params.minus_dims must list one integer >= 0 per block")),
    "random_invertible": _random_generator(False),
    "random_flat": _random_generator(True),
}
PATHS = {
    # path.params holds the fields of the generator that path.name selects
    "generator": Kind(
        {"name": (NO_DEFAULT, _one_of(GENERATORS)), "params": {}},
        lambda cfg, model, seed: GENERATORS[cfg["name"]].build(cfg["params"], model, seed),
        lambda doc: _require_samples_fit(doc["path"]["params"].get("num_samples", 1),
                                         sum(n for n, _ in doc["model"]["blocks"])),
        "weighted_blocks"),
    "explicit": Kind(
        {"samples": (NO_DEFAULT, _SAMPLES),
         "interpolation": ("linear", _one_of(("linear", "cubic")))},
        _explicit_path, _check_explicit, "weighted_blocks"),
    "affine_frequency": Kind(
        {"offset_start": (-1.0, _NUMBER), "offset_end": (1.0, _NUMBER),
         "num_samples": (5, _integer(2))},
        lambda cfg, model, seed: dirac_path(model, float(cfg["offset_start"]),
                                            float(cfg["offset_end"]), int(cfg["num_samples"])),
        lambda doc: _require_samples_fit(doc["path"]["num_samples"], 1), "frequency"),
    "metric_path": Kind({}, lambda cfg, model, seed: trivialized_path(model),
                        model="circle_metric"),
}


def _select(table, doc, field):
    """The entry of ``table`` that the field ``<section>.<key>`` of ``doc``
    names; any other value is refused."""
    section, key = field.split(".")
    rule = _one_of(table)
    _require(isinstance(doc.get(section), dict) and rule(doc[section].get(key)),
             f"{field} must be {rule.text}")
    return table[doc[section][key]]


def _kinds(doc):
    """The entries that model.type, path.type and, on a generator path,
    path.name select; a path on another model type than its own is refused."""
    kinds = [_select(MODELS, doc, "model.type"), _select(PATHS, doc, "path.type")]
    _require(doc["model"]["type"] == kinds[1].model,
             f"{doc['path']['type']} paths need model.type {kinds[1].model!r}")
    if kinds[1] is PATHS["generator"]:
        kinds.append(_select(GENERATORS, doc, "path.name"))
    return kinds


def _defaults(fields, given, prefix=""):
    """``given`` with every absent field of ``fields`` that has a default at
    that default; a section that is not an object is refused."""
    full = dict(given)
    for key, entry in fields.items():
        if isinstance(entry, dict):
            section = given.get(key, {})
            _require(isinstance(section, dict), f"{prefix}{key} must be an object")
            full[key] = _defaults(entry, section, f"{prefix}{key}.")
        elif key not in given and entry[0] is not NO_DEFAULT:
            full[key] = entry[0]
    return full


def _with_defaults(doc):
    """The scenario with every absent field at its default, its field table
    (FIELDS and the fields of the entries its types select), and the entries."""
    model, path, *generator = kinds = _kinds(doc)
    fields = dict(FIELDS, model=dict(model.fields, type=(NO_DEFAULT, _one_of(MODELS))),
                  path=dict(path.fields, type=(NO_DEFAULT, _one_of(PATHS))))
    if generator:
        fields["path"]["params"] = generator[0].fields
    full = _defaults(fields, doc)
    full["output"] = {"csv": f"{doc.get('name')}.csv", "log": f"{doc.get('name')}.log",
                      **full["output"]}
    return full, fields, kinds


def _check_fields(fields, values, prefix=""):
    """Refuse the first key of ``values`` that is not a scenario field, then
    the first field that is absent or fails its rule in ``fields``."""
    for key in values:
        _require(key in fields, f"{prefix}{key} is not a scenario field")
    for key, entry in fields.items():
        if isinstance(entry, dict):
            _check_fields(entry, values[key], f"{prefix}{key}.")
        else:
            rule = entry[1]
            _require(key in values and rule(values[key]), f"{prefix}{key} must be {rule.text}")


def _finite_float(text):
    """A JSON number or constant; NaN, infinities and overflows are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {text} is not allowed")
    return value


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_finite_float,
                            parse_float=_finite_float)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    validate_scenario(doc)
    return doc


def validate_scenario(doc):
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    full, fields, kinds = _with_defaults(doc)
    _check_fields(fields, full)
    for kind in kinds:
        kind.check(full)
    _require(full["output"]["csv"] != full["output"]["log"],
             "output.csv and output.log must name two files")


# ---------------------------------------------------------------------------
# execution

def _calls(doc, path):
    """Every timed call of a run, in CSV order, as (stage, CSV engine,
    parameter s, result name, call); the index has no result name.  Each call
    looks up its engine on this module when it runs, so a tracer that patches
    the engines here sees every call."""
    params = doc["engine_params"]
    for name in doc["engines"]:
        if name == "crossing":
            yield "sf_crossing", "crossing", "", "crossing", lambda: sf_crossing(path)
        elif name == "phillips":
            yield "sf_phillips", "phillips", "", "phillips", lambda: sf_phillips(path)
        elif name == "integral":
            for s in params["s_grid"]:
                yield ("sf_integral", "integral", f"{s:g}", f"integral[s={s:g}]",
                       lambda: sf_integral(path, float(s)))
        else:
            for chi_name in params["chi"]:
                chi = CHI_PROFILES[chi_name]()
                yield ("sf_appendix", f"appendix:{chi_name}", "", f"appendix[{chi_name}]",
                       lambda: sf_appendix(path, chi, rescale=True))
    aps = doc["aps"]
    if aps["enabled"]:
        yield ("aps_index", "aps_index", "", None, lambda: aps_index(SuspensionProblem(
            path=path, grid_size=aps["M"], scheme=aps["scheme"],
            geometry=aps["geometry"], cylinder_length=aps["L"],
            kernel_threshold=float(aps["theta"]))))


def run_scenario(doc, out_dir=".", threads=1):
    """Execute one scenario document.  Returns (record, exit_code).

    The values depend on the document alone.  Engines run one after the
    other; ``threads`` is accepted for callers written against the former
    thread pool and has no effect.
    """
    doc, _, (model_kind, path_kind, *_) = _with_defaults(doc)
    os.makedirs(out_dir, exist_ok=True)
    record = RunRecord(scenario=doc["name"], seed=doc["seed"])
    started = time.perf_counter()

    model = model_kind.build(doc["model"])
    path = path_kind.build(doc["path"], model, doc["seed"])

    rows = []
    for stage, engine, s, name, call in _calls(doc, path):
        t0 = time.perf_counter()
        try:
            res = call()
        except NumericError as exc:
            raise NumericError(f"{stage}: {exc}", partial=exc.partial) from exc
        ms = 1000 * (time.perf_counter() - t0)
        if name is None:
            record.aps_index = res
            rows.append((engine, s, res, 0.0, ms))
        else:
            record.engine_results[name] = res
            rows.append((engine, s, res.value,
                         res.diagnostics.get("quadrature_error", 0.0), ms))

    # agreement and expected values are checked on the raw values: on a
    # lattice model the snapped ones only show a common lattice point
    values = {name: res.raw for name, res in record.engine_results.items()}
    if record.aps_index is not None:
        values["aps_index"] = record.aps_index
    names = sorted(values)
    record.agreement = [
        (a, b, values[a] - values[b]) for i, a in enumerate(names)
        for b in names[i + 1:]]

    _check_assertions(doc, record, values)
    record.wall_clock = time.perf_counter() - started
    _write_outputs(doc, record, rows, out_dir)
    return record, (0 if not record.assertion_failures else 1)


def _check_assertions(doc, record, values):
    asserts = doc["assertions"]
    failures = record.assertion_failures
    agree_tol = asserts["pairwise_agreement"]
    if agree_tol is not None:
        tol = float(agree_tol)
        engine_vals = {k: v for k, v in values.items() if k != "aps_index"}
        for a, b, diff in record.agreement:
            if a in engine_vals and b in engine_vals and abs(diff) > tol:
                failures.append(f"engines {a} and {b} disagree by {diff:.3e} > {tol:.1e}")
    expected = asserts["expected_value"]
    if expected is not None:
        tol = float(asserts["value_tolerance"])
        for name, val in values.items():
            if abs(val - float(expected)) > tol:
                failures.append(
                    f"{name} = {val!r} differs from expected {expected} by more than {tol:.1e}")
    if asserts["aps_matches_crossing"]:  # two counts, both on the lattice
        crossing = record.engine_results.get("crossing")
        if record.aps_index is None or crossing is None:
            failures.append("aps_matches_crossing requires the crossing engine and aps.enabled")
        elif record.aps_index != crossing.value:
            failures.append(f"aps index {record.aps_index} != crossing flow {crossing.value}")


def _format_value(x):
    return repr(float(x))


def _write_outputs(doc, record, rows, out_dir):
    csv_name, log_name = doc["output"]["csv"], doc["output"]["log"]
    seed_text = "" if record.seed is None else str(record.seed)
    lines = [",".join(CSV_COLUMNS)]
    for engine, s, value, err, ms in rows:
        lines.append(",".join([
            doc["name"], engine, _format_value(s) if s != "" else "",
            _format_value(value), _format_value(err), f"{ms:.3f}", seed_text]))
    with open(os.path.join(out_dir, csv_name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    log = [f"scenario: {record.scenario}",
           f"library version: {record.version}",
           f"seed: {seed_text or '(none)'}",
           f"wall clock: {record.wall_clock:.3f} s",
           "engine results:"]
    for name, res in record.engine_results.items():
        log.append(f"  {name}: {res.value!r} (raw {res.raw!r})")
    if record.aps_index is not None:
        log.append(f"  aps_index: {record.aps_index!r}")
    log.append("pairwise differences:")
    for a, b, diff in record.agreement:
        log.append(f"  {a} - {b} = {diff:.3e}")
    if record.assertion_failures:
        log.append("ASSERTION FAILURES:")
        log.extend(f"  {msg}" for msg in record.assertion_failures)
    else:
        log.append("all assertions passed")
    with open(os.path.join(out_dir, log_name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(log) + "\n")


# ---------------------------------------------------------------------------
# entry points

def _scenario_dir():
    return os.path.join(os.path.dirname(__file__), "scenarios")


def list_scenarios():
    return sorted(f for f in os.listdir(_scenario_dir()) if f.endswith(".json"))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sfcalc",
        description="Spectral flow engines and suspension-index computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="scenario JSON file (or a bundled name)")
    p_run.add_argument("--out", default=".", help="output directory")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of {sorted(SUITES)} or 'all'")

    sub.add_parser("list-scenarios", help="list bundled scenario files")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in list_scenarios():
            print(name)
        return 0

    if args.command == "verify":
        try:
            results, elapsed = run_suite(args.suite)
        except KeyError:
            print(f"unknown suite {args.suite!r}; choose from "
                  f"{sorted(SUITES) + ['all']}", file=sys.stderr)
            return 2
        print(format_table(results))
        print(f"elapsed: {elapsed:.1f} s")
        return 0 if all(ok for _, ok, _ in results) else 1

    # run
    scenario_path = args.scenario
    if not os.path.exists(scenario_path):
        bundled = os.path.join(_scenario_dir(), scenario_path)
        if os.path.exists(bundled):
            scenario_path = bundled
        elif os.path.exists(bundled + ".json"):
            scenario_path = bundled + ".json"
    try:
        doc = load_scenario(scenario_path)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    try:
        record, code = run_scenario(doc, out_dir=args.out)
    except OSError as exc:
        print(f"cannot write the outputs of {doc['name']} to {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error in {doc['name']}: {exc}", file=sys.stderr)
        return 3
    except SfcalcError as exc:
        print(f"error in {doc['name']}: {exc}", file=sys.stderr)
        return 2
    for failure in record.assertion_failures:
        print(f"assertion failed: {failure}", file=sys.stderr)
    print(f"{doc['name']}: "
          + ("ok" if code == 0 else f"{len(record.assertion_failures)} assertion(s) failed")
          + f" ({record.wall_clock:.2f} s)")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
