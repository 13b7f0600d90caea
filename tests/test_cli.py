"""Scenario ingestion, CSV artifacts, exit codes and determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import sfcalc
from sfcalc.cli import (ENGINES, FIELDS, GENERATORS, MODELS, NO_DEFAULT, PATHS,
                        _scenario_dir, list_scenarios, load_scenario, main,
                        run_scenario, validate_scenario, ScenarioError)
from sfcalc.engines import SpectralFlowResult, sf_crossing, sf_integral, sf_phillips
from sfcalc.errors import NumericError
from sfcalc.path import OperatorPath
from sfcalc.tracemodel import BlockHermitian, WeightedBlockModel


def bundled(name):
    return os.path.join(_scenario_dir(), name)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def mask_runtime(rows):
    return [row[:5] + row[6:] for row in rows]


def test_list_scenarios_contains_bundled():
    names = list_scenarios()
    for expected in ("single_crossing.json", "zsign_dirac.json",
                     "circle_signature.json"):
        assert expected in names


@pytest.fixture(scope="module")
def single_crossing_run(tmp_path_factory):
    """One ``sfcalc run single_crossing``, shared by the tests that read it:
    (exit code, run record, output directory)."""
    out = tmp_path_factory.mktemp("single_crossing")
    records = []

    def recording(*args, **kwargs):
        records.append(run_scenario(*args, **kwargs))
        return records[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sfcalc.cli, "run_scenario", recording)
        code = main(["run", "single_crossing", "--out", str(out)])
    return code, records[0][0], out


def test_single_crossing_scenario(single_crossing_run):
    code, _, out = single_crossing_run
    assert code == 0
    rows = read_csv(out / "single_crossing.csv")
    assert rows[0] == ["scenario", "engine", "parameter_s", "value",
                       "error_estimate", "runtime_ms", "seed"]
    values = {(r[1], r[2]): float(r[3]) for r in rows[1:]}
    for key, value in values.items():
        assert value == 1.0, key
    engines = {r[1] for r in rows[1:]}
    assert {"crossing", "phillips", "integral", "appendix:sine",
            "appendix:quintic", "aps_index"} <= engines


def test_zsign_dirac_scenario(tmp_path):
    code = main(["run", "zsign_dirac", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "zsign_dirac.csv")
    value = float(rows[1][3])
    assert abs(value - 0.3183098861837907) < 1e-7


def test_invalid_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 1, "name": "bad"}))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["run", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_schema_validation_messages():
    with pytest.raises(ScenarioError):
        load_scenario(os.path.join(_scenario_dir(), "..", "errors.py"))
    doc = json.load(open(bundled("single_crossing.json")))
    doc["engines"] = ["warp"]
    with pytest.raises(ScenarioError):
        validate_scenario(doc)


def test_failed_assertion_exit_code(tmp_path):
    doc = json.load(open(bundled("single_crossing.json")))
    doc["aps"]["enabled"] = False
    doc["assertions"]["expected_value"] = 2.0
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 1


def test_assertions_compare_raw_values(tmp_path, monkeypatch, capsys):
    # a Phillips raw value 0.1 off still snaps to the lattice point 1.5 of
    # the weights (1, 0.5); the assertions must see the raw value
    def shifted(path):
        res = sf_phillips(path)
        diagnostics = dict(res.diagnostics, raw=res.raw + 0.1)
        return SpectralFlowResult(res.value, res.method, diagnostics)

    monkeypatch.setattr(sfcalc.cli, "sf_phillips", shifted)
    doc = json.load(open(bundled("involution_norm.json")))
    doc["aps"]["enabled"] = False
    scen = tmp_path / "involution.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "engines crossing and phillips disagree by" in err
    assert "phillips = 1.6" in err and "differs from expected 1.5" in err
    log = (tmp_path / "involution_norm.log").read_text()
    assert "crossing - phillips = -1.000e-01" in log


def test_index_differing_from_crossing_fails_its_assertion(tmp_path, monkeypatch):
    doc = json.load(open(bundled("involution_norm.json")))
    doc["engines"] = ["crossing"]
    doc["assertions"] = {"aps_matches_crossing": True}
    monkeypatch.setattr(sfcalc.cli, "aps_index", lambda problem: 0.5)
    record, code = run_scenario(doc, out_dir=str(tmp_path))
    assert code == 1
    assert record.assertion_failures == ["aps index 0.5 != crossing flow 1.5"]


def test_determinism_identical_values(tmp_path):
    # identical scenario + seed: identical CSV apart from wall-clock column
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "random_agreement", "--out", str(out_a)]) == 0
    assert main(["run", "random_agreement", "--out", str(out_b)]) == 0
    rows_a = mask_runtime(read_csv(out_a / "random_agreement.csv"))
    rows_b = mask_runtime(read_csv(out_b / "random_agreement.csv"))
    assert rows_a == rows_b


def test_threads_do_not_change_values(tmp_path):
    # engines run serially: run_scenario still accepts threads= and gives
    # the same values, and the CLI has no --threads flag
    doc = json.load(open(bundled("random_agreement.json")))
    out_a = tmp_path / "serial"
    out_b = tmp_path / "threads"
    assert run_scenario(doc, out_dir=str(out_a))[1] == 0
    assert run_scenario(doc, out_dir=str(out_b), threads=3)[1] == 0
    assert mask_runtime(read_csv(out_a / "random_agreement.csv")) == \
        mask_runtime(read_csv(out_b / "random_agreement.csv"))
    with pytest.raises(SystemExit) as info:
        main(["--threads", "3", "run", "random_agreement", "--out", str(out_b)])
    assert info.value.code == 2


def test_environment_does_not_change_the_seed(tmp_path, monkeypatch):
    # the document alone sets the seed: SFCALC_SEED is not read
    assert main(["run", "random_agreement", "--out", str(tmp_path / "x")]) == 0
    monkeypatch.setenv("SFCALC_SEED", "777")
    assert main(["run", "random_agreement", "--out", str(tmp_path / "y")]) == 0
    rows_x = read_csv(tmp_path / "x" / "random_agreement.csv")
    rows_y = read_csv(tmp_path / "y" / "random_agreement.csv")
    assert {row[6] for row in rows_y[1:]} == {"90125"}
    assert mask_runtime(rows_x) == mask_runtime(rows_y)


def test_tolerance_scale_flag_is_refused(tmp_path):
    # the document alone sets the assertion tolerances
    with pytest.raises(SystemExit) as info:
        main(["--tolerance-scale", "10", "run", "random_agreement",
              "--out", str(tmp_path)])
    assert info.value.code == 2


def test_run_log_written(tmp_path):
    assert main(["run", "zsign_dirac", "--out", str(tmp_path)]) == 0
    log = (tmp_path / "zsign_dirac.log").read_text()
    assert "all assertions passed" in log
    assert "zsign_dirac" in log


def test_numeric_error_exit_code(tmp_path):
    # an absurd kernel threshold trips the singular-value gap check
    doc = json.load(open(bundled("single_crossing.json")))
    doc["engines"] = []
    doc["aps"]["theta"] = 0.01
    doc["aps"]["geometry"] = "cylinder"
    scen = tmp_path / "ambiguous.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(tmp_path)]) == 3


def test_tolerance_below_rounding_exits_3_at_once(tmp_path, capsys):
    # a weight of 1e300 puts the integral's rounding error far above
    # quad_tol: the quadrature refuses after its first level, not after
    # exhausting its panel budget
    doc = json.load(open(bundled("random_agreement.json")))
    doc["model"]["blocks"][0][1] = 1e300
    scen = tmp_path / "huge_weight.json"
    scen.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 1.0
    assert "sf_integral: tolerance 1.000e-08 is below the rounding error" \
        in capsys.readouterr().err


def test_panels_at_their_rounding_floor_stop_bisecting(tmp_path, capsys):
    # at weight 3e6 a panel's share of quad_tol falls below the rounding of
    # its own sum long before the whole integral stops converging; at 1e7
    # the whole integral is below rounding and is refused before bisecting
    doc = json.load(open(bundled("random_agreement.json")))

    def run(weight):
        doc["model"]["blocks"][0][1] = weight
        scen = tmp_path / f"weight_{weight:g}.json"
        scen.write_text(json.dumps(doc))
        return main(["run", str(scen), "--out", str(tmp_path / "out")])

    assert run(3e6) == 0
    start = time.perf_counter()
    assert run(1e7) == 3
    assert time.perf_counter() - start < 1.0
    assert "sf_appendix: tolerance 1.000e-09 is below the rounding error" \
        in capsys.readouterr().err


def test_verify_unknown_suite():
    assert main(["verify", "nonsense"]) == 2


def test_verify_engines_suite_passes(capsys):
    assert main(["verify", "engines"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS  engine-agreement seed=") == 50
    assert "50/50 checks passed" in out


def test_runs_with_numpy_alone(tmp_path):
    # scipy and hypothesis are test-only: a None entry in sys.modules makes
    # every import of them fail, so the run and the suite must not need them
    script = (
        "import sys\n"
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
        "from sfcalc.cli import main\n"
        f"sys.exit(main(['run', 'zsign_dirac', '--out', {str(tmp_path)!r}])"
        " or main(['verify', 'engines']))\n")
    src = os.path.dirname(os.path.dirname(sfcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "50/50 checks passed" in proc.stdout


def test_list_scenarios_prints_the_bundled_names(capsys):
    assert main(["list-scenarios"]) == 0
    assert capsys.readouterr().out.split() == [
        "circle_signature.json", "involution_norm.json", "random_agreement.json",
        "single_crossing.json", "zsign_dirac.json"]


def test_explicit_complex_samples_as_re_im_pairs(tmp_path):
    # block weights 1 and 0.5; the 2x2 block has complex off-diagonal
    # entries and crosses once, the 1x1 block crosses once: flow 1.5
    samples = []
    for u, top, corner in (
            (0.0, [[-1.0, 0.4 + 0.3j], [0.4 - 0.3j, 1.2]], -0.7),
            (0.5, [[0.2, 0.5 - 0.6j], [0.5 + 0.6j, 0.9]], 0.1),
            (1.0, [[1.1, -0.2 + 0.5j], [-0.2 - 0.5j, 1.4]], 0.8)):
        mat = np.zeros((3, 3), dtype=complex)
        mat[:2, :2] = top
        mat[2, 2] = corner
        samples.append((u, mat))
    doc = {"schema": 1, "name": "complex_explicit",
           "model": {"type": "weighted_blocks", "blocks": [[2, 1.0], [1, 0.5]]},
           "path": {"type": "explicit", "samples": [
               {"u": u, "matrix": [[[z.real, z.imag] for z in row] for row in mat]}
               for u, mat in samples]},
           "engines": ["crossing", "phillips", "integral"],
           "engine_params": {"s_grid": [1.0]},
           "aps": {"enabled": False},
           "assertions": {"expected_value": 1.5}}
    record, code = run_scenario(doc, out_dir=str(tmp_path))
    assert code == 0
    model = WeightedBlockModel([(2, 1.0), (1, 0.5)])
    path = OperatorPath(model, [(u, BlockHermitian(model, mat)) for u, mat in samples])
    expected = {"crossing": sf_crossing(path), "phillips": sf_phillips(path),
                "integral[s=1]": sf_integral(path, 1.0)}
    # the snapped values are 1.5 for any path with these crossings; the raw
    # integral depends on every entry
    assert {name: res.raw for name, res in record.engine_results.items()} == {
        name: res.raw for name, res in expected.items()}


def test_run_record_agreement_antisymmetric(single_crossing_run):
    code, record, _ = single_crossing_run
    assert code == 0
    seen = {(a, b): d for a, b, d in record.agreement}
    for (a, b), d in seen.items():
        assert (b, a) not in seen  # upper triangle only
    assert all(abs(d) < 1e-9 for d in seen.values())


@pytest.mark.parametrize("blocks, minus_dims, engines, value", [
    # snapped to the lattice of step 0.1 on both sides; every engine and the
    # index write the double nearest 3/10
    ([[1, 0.3], [1, 0.1]], [1, 0], list(ENGINES), "0.3"),
    # no rational step: both sides sum w_b * n_b over the same block counts
    ([[2, math.sqrt(2)], [2, 1.0]], [2, 1], ["crossing"], None),
], ids=["step-0.1", "sqrt2"])
def test_index_matches_flow_on_non_dyadic_weights(tmp_path, blocks, minus_dims,
                                                  engines, value):
    doc = json.load(open(bundled("involution_norm.json")))
    doc["name"] = "non_dyadic"
    doc["model"]["blocks"] = blocks
    doc["path"]["params"]["minus_dims"] = minus_dims
    doc["engines"] = engines
    doc["assertions"] = {"aps_matches_crossing": True}
    scen = tmp_path / "non_dyadic.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(tmp_path)]) == 0
    if value is not None:
        rows = read_csv(tmp_path / "non_dyadic.csv")[1:]
        assert [row[3] for row in rows] == [value] * 8


def test_oversized_index_refused_up_front(tmp_path, capsys):
    # the default cylinder length 4 / 0.001 puts 1.6M intervals on the grid,
    # and the 2-dimensional block is filled densely
    doc = {"schema": 1, "name": "oversized",
           "model": {"type": "weighted_blocks", "blocks": [[2, 1.0]]},
           "path": {"type": "explicit",
                    "samples": [{"u": 0.0, "matrix": [[-0.001, 0.0], [0.0, 1.0]]},
                                {"u": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]},
           "engines": [],
           "aps": {"enabled": True, "M": 200, "geometry": "cylinder"}}
    scen = tmp_path / "oversized.json"
    scen.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code = main(["run", str(scen), "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert "3200400 x 3200402" in err and "GiB" in err
    assert elapsed < 1.0


DELETE = object()


def _set_path(doc, key, value):
    """Set the field at a dotted key, or remove it when ``value`` is DELETE;
    a number in the key indexes a list."""
    *parents, last = [int(k) if k.isdigit() else k for k in key.split(".")]
    target = doc
    for name in parents:
        target = target[name]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value


def _explicit_path(entry):
    """A two-sample explicit path on random_agreement's 7-dimensional model
    with ``entry`` in the first sample (json writes NaN or Infinity)."""
    first = np.eye(7)
    first[0, 0] = entry
    return {"type": "explicit",
            "samples": [{"u": 0.0, "matrix": first.tolist()},
                        {"u": 1.0, "matrix": np.eye(7).tolist()}]}


@pytest.mark.parametrize("scenario, key, value", [
    ("random_agreement", "path.type", "metric_path"),
    ("random_agreement", "engine_params", [0.5, 2.0]),
    ("random_agreement", "aps", [True]),
    ("random_agreement", "model.blocks", [[2, "x"], [3, 0.5], [2, 0.25]]),
    ("random_agreement", "engine_params.chi", 3),
    ("random_agreement", "path",
     {"type": "explicit", "samples": [{"u": 0.0, "matrix": [["x"]]}]}),
    ("random_agreement", "model", {"type": "circle_metric", "n": 8}),
    ("random_agreement", "seed", -5),
    ("random_agreement", "path", _explicit_path(math.nan)),
    ("random_agreement", "path", _explicit_path(math.inf)),
    ("random_agreement", "engine_params.s_grid", [math.inf]),
    ("random_agreement", "path.params.num_samples", -3),
    ("random_agreement", "path",
     {"type": "generator", "name": "single_crossing", "params": {"num_samples": -2}}),
    ("zsign_dirac", "path.num_samples", -2),
    ("random_agreement", "output", {"csv": ""}),
    ("random_agreement", "output", {"csv": "../escape.csv"}),
    ("random_agreement", "output", lambda tmp: {"csv": str(tmp / "absolute.csv")}),
    ("single_crossing", "aps.L", -1),
    ("single_crossing", "assertions.value_tolerance", -1.0),
    ("random_agreement", "output", {"csv": "same.txt", "log": "same.txt"}),
    ("random_agreement", "output", {"log": "nul\0byte.log"}),
    ("random_agreement", "path.params.num_samples", 10 ** 12),
    ("random_agreement", "model.blocks", [[10 ** 6, 1.0]]),
    ("circle_signature", "model.n", -3),
    ("circle_signature", "model.n", 10 ** 6),
    ("involution_norm", "assertions.value_tolerance", None),
    ("zsign_dirac", "schema", True),
    ("zsign_dirac", "assertions.expected_value", True),
    ("random_agreement", "engine_params.window", True),
    ("random_agreement", "engine_params.s_grid", [True]),
    ("random_agreement", "aps.theta", True),
    ("single_crossing", "aps.theta", 0.1),
    ("random_agreement", "aps.enabled", "false"),
    ("zsign_dirac", "assertions.aps_matches_crossing", "false"),
    ("involution_norm", "path.params.flatten", "no"),
    ("random_agreement", "model.blocks", [[True, 1.0], [1, True]]),
    ("zsign_dirac", "model.xi_max", 0),
    ("zsign_dirac", "model.rho", -1),
    ("random_agreement", "path.interpolation", "quadratic"),
    ("single_crossing", "model.blocks", [[1, 0.5]]),
    ("single_crossing", "model.blocks", [[3, 2.0], [2, 1.0]]),
    ("single_crossing", "model.type", "frequency"),
    ("random_agreement", "path", {"type": "explicit", "samples": [
        {"u": 0.0, "matrix": np.eye(7).tolist(), "weight": 2.0},
        {"u": 1.0, "matrix": np.eye(7).tolist()}]}),
], ids=["metric-path-on-blocks", "engine-params-list", "aps-list",
        "weight-string", "chi-int", "explicit-matrix-string",
        "circle-metric-without-metric-path", "negative-seed",
        "explicit-matrix-nan", "explicit-matrix-infinity", "s-grid-infinity",
        "random-flat-negative-samples", "single-crossing-negative-samples",
        "affine-frequency-negative-samples", "csv-empty-name",
        "csv-parent-directory", "csv-absolute-path", "negative-cylinder-length",
        "negative-value-tolerance",
        "csv-and-log-same-file", "log-name-nul", "samples-beyond-memory",
        "block-beyond-memory", "metric-negative-n", "metric-beyond-memory",
        "value-tolerance-null", "schema-true", "expected-value-true",
        "window-true", "s-grid-true", "theta-true", "theta-0.1", "aps-enabled-string",
        "aps-matches-crossing-string", "flatten-string", "block-entries-true",
        "xi-max-zero", "rho-negative", "generator-path-quadratic",
        "single-crossing-half-weight", "single-crossing-two-blocks",
        "single-crossing-frequency-model", "explicit-sample-unread-key"])
def test_malformed_scenario_exits_2_without_traceback(tmp_path, scenario, key, value):
    doc = json.load(open(bundled(f"{scenario}.json")))
    _set_path(doc, key, value(tmp_path) if callable(value) else value)
    scen = tmp_path / "malformed.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(sfcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sfcalc", "run", str(scen), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("scenario error:")
    # nothing is written outside --out
    assert [p.name for p in tmp_path.iterdir() if p != out] == ["malformed.json"]


@pytest.mark.parametrize("scenario, key, value", [
    ("involution_norm", "assertions.expected_valu", 99.0),
    ("involution_norm", "assertions.pairwise_agreemnt", 1e-6),
    ("single_crossing", "engine_params.window", 0.5),
    ("random_agreement", "engine_params.min_endpoint_gap", -1.0),
    ("random_agreement", "path.params.num_sample", 7),
    ("zsign_dirac", "sed", 1),
], ids=["assertion-misspelled", "agreement-misspelled", "crossing-window",
        "negative-min-endpoint-gap", "generator-param-misspelled",
        "top-level-misspelled"])
def test_unknown_field_exits_2_and_names_it(tmp_path, capsys, scenario, key, value):
    # an unknown field is never read: a misspelled assertion would pass unchecked
    _assert_refused_as_unknown(tmp_path, capsys, scenario, key, value)


def _assert_refused_as_unknown(tmp_path, capsys, scenario, key, value):
    """``sfcalc run`` of a bundled scenario with ``key`` set to ``value``
    exits 2 as "<key> is not a scenario field" and writes nothing."""
    doc = json.load(open(bundled(f"{scenario}.json")))
    _set_path(doc, key, value)
    scen = tmp_path / "unknown.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"scenario error: {key} is not a scenario field\n"
    assert not out.exists()


def test_out_naming_a_file_exits_2_before_any_engine_runs(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    start = time.perf_counter()
    assert main(["run", "single_crossing", "--out", str(taken)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(
        f"cannot write the outputs of single_crossing to {taken}: ")


@pytest.mark.parametrize("key, value", [
    ("engines", ["phillips", "crossing"]),
    ("engines", ["appendix"]),
    ("aps", {"enabled": True}),
], ids=["crossing", "appendix", "index"])
def test_frequency_model_rejects_block_engines_at_validation(tmp_path, capsys,
                                                            key, value):
    doc = json.load(open(bundled("zsign_dirac.json")))
    _set_path(doc, key, value)
    scen = tmp_path / "frequency.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(scen), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("scenario error:")
    assert not out.exists()  # no CSV, no log


def test_frequency_model_runs_phillips_and_integral(tmp_path):
    doc = json.load(open(bundled("zsign_dirac.json")))
    doc["engines"] = ["phillips", "integral"]
    doc["engine_params"] = {"s_grid": [2.0]}
    scen = tmp_path / "frequency.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(tmp_path)]) == 0
    engines = [row[1] for row in read_csv(tmp_path / "zsign_dirac.csv")[1:]]
    assert engines == ["phillips", "integral"]


def _failing_snap(self, raw):
    raise NumericError("off the lattice", partial=raw)


@pytest.mark.parametrize("engine, stage", [
    ("crossing", "sf_crossing"), ("phillips", "sf_phillips"),
    ("integral", "sf_integral"), ("appendix", "sf_appendix"),
    (None, "aps_index")])
def test_numeric_error_names_its_stage_once(tmp_path, monkeypatch, engine, stage):
    doc = json.load(open(bundled("random_agreement.json")))
    doc["engines"] = [engine] if engine else []
    doc["aps"]["enabled"] = engine is None
    doc["aps"]["M"] = 16
    monkeypatch.setattr(WeightedBlockModel, "snap", _failing_snap)
    with pytest.raises(NumericError) as info:
        run_scenario(doc, out_dir=str(tmp_path))
    assert str(info.value) == f"{stage}: off the lattice"
    assert isinstance(info.value.partial, float)  # the raw value survives


def test_failed_quadrature_names_the_integral_stage_once(tmp_path, monkeypatch,
                                                         capsys):
    def failing_quadrature(f, a, b, **kwargs):
        raise NumericError("quadrature did not converge", partial=0.25)

    monkeypatch.setattr(sfcalc.engines, "adaptive_gauss_legendre", failing_quadrature)
    doc = json.load(open(bundled("single_crossing.json")))
    doc["engines"] = ["integral"]
    doc["aps"]["enabled"] = False
    with pytest.raises(NumericError) as info:
        run_scenario(doc, out_dir=str(tmp_path))
    assert str(info.value) == "sf_integral: quadrature did not converge"
    assert info.value.partial == 0.25
    scen = tmp_path / "failing.json"
    scen.write_text(json.dumps(doc))
    assert main(["run", str(scen), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numeric error in single_crossing: sf_integral: quadrature did not converge\n")


def _table_fields(fields, prefix=""):
    """(dotted key, default) of every field of a FIELDS-shaped table that has
    a default."""
    for key, entry in fields.items():
        if isinstance(entry, dict):
            yield from _table_fields(entry, f"{prefix}{key}.")
        elif entry[0] is not NO_DEFAULT:
            yield prefix + key, entry[0]


def _typed_doc(name):
    """A document of model type, path type or generator ``name``: a bundled
    one, or random_agreement with an explicit path; zsign_dirac for None."""
    base = {None: "zsign_dirac", "frequency": "zsign_dirac",
            "affine_frequency": "zsign_dirac", "circle_metric": "circle_signature",
            "metric_path": "circle_signature", "single_crossing": "single_crossing",
            "involution": "involution_norm"}.get(name, "random_agreement")
    doc = json.load(open(bundled(f"{base}.json")))
    if name == "explicit":
        doc["path"] = _explicit_path(1.0)
    elif name in GENERATORS:
        doc["path"]["name"] = name
    return doc


TABLE_FIELDS = (
    [(None, key, default) for key, default in _table_fields(FIELDS)]
    + [(name, key, default) for section, table in (("model", MODELS), ("path", PATHS))
       for name, kind in table.items()
       for key, default in _table_fields(kind.fields, f"{section}.")]
    + [(name, key, default) for name, kind in GENERATORS.items()
       for key, default in _table_fields(kind.fields, "path.params.")])


# ids: <generator>:<key> for path.params, FIELDS:<key> for every other field
@pytest.mark.parametrize("owner, key, default", TABLE_FIELDS, ids=[
    f"{owner if owner in GENERATORS else 'FIELDS'}:{key}" for owner, key, _ in TABLE_FIELDS])
def test_every_table_field_has_a_strict_rule(owner, key, default):
    # each optional field takes its default on a document of its type, and
    # refuses a nested list, the string "false" and, unless its default is a
    # bool, JSON true, each with a ScenarioError that names the field
    def validate_with(value):
        doc = _typed_doc(owner)
        doc.setdefault(key.split(".")[0], {})
        _set_path(doc, key, value)
        validate_scenario(doc)

    validate_with(default)
    for value in [[[1, 1.0]], "false"] + ([] if isinstance(default, bool) else [True]):
        with pytest.raises(ScenarioError, match=f"^{key} must be "):
            validate_with(value)


@pytest.mark.parametrize("scenario, key, value", [
    ("random_agreement", "model.rho", 0.2),
    ("random_agreement", "model.n", 8),
    ("random_agreement", "model.profile", "cos_ramp"),
    ("zsign_dirac", "model.blocks", [[1, 1.0]]),
    ("random_agreement", "path.offset_start", -2.0),
    ("random_agreement", "path.interpolation", "cubic"),
    ("zsign_dirac", "path.interpolation", "linear"),
    ("circle_signature", "path.samples", [{"u": 0.0, "matrix": [[1.0]]}]),
    ("circle_signature", "path.name", "random_flat"),
    ("random_agreement", "path.params.minus_dims", [1, 1, 1]),
], ids=["blocks-rho", "blocks-n", "blocks-profile", "frequency-blocks",
        "generator-offset-start", "generator-cubic", "affine-frequency-interpolation",
        "metric-path-samples", "metric-path-name", "random-flat-minus-dims"])
def test_a_field_of_another_type_is_refused(tmp_path, capsys, scenario, key, value):
    # a section reads the fields of its own type only; another type's field
    # would be ignored by the run
    _assert_refused_as_unknown(tmp_path, capsys, scenario, key, value)


def _all_keys(fields):
    """Every key of a FIELDS-shaped table, those inside its sections too."""
    for key, entry in fields.items():
        yield key
        if isinstance(entry, dict):
            yield from _all_keys(entry)


def test_readme_schema_names_every_type_and_field():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Scenario schema (v1)")[1].split("\n## ")[0]
    kinds = {**MODELS, **PATHS, **GENERATORS}
    names = (set(kinds) | set(_all_keys(FIELDS))
             | {key for kind in kinds.values() for key in _all_keys(kind.fields)})
    missing = sorted(name for name in names if f"`{name}`" not in section)
    assert not missing, f"README's scenario schema does not name {missing}"


# ---------------------------------------------------------------------------
# scenario fuzz

# The two heavy documents run at a small size: single_crossing on a short
# cylinder and circle_signature at the smallest metric grid.
FUZZ_SIZES = {"random_agreement": {"aps.M": 16},
              "single_crossing": {"aps.M": 16, "aps.L": 0.25},
              "circle_signature": {"model.n": 4, "aps.M": 16}}


def _fuzz_base(name):
    doc = json.load(open(bundled(f"{name}.json")))
    for key, value in FUZZ_SIZES.get(name, {}).items():
        _set_path(doc, key, value)
    return doc


def _field_keys(value, prefix=""):
    """Dotted keys of every field and list item of a document, nested ones
    included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield f"{prefix}{key}"
        if isinstance(item, (dict, list)):
            yield from _field_keys(item, f"{prefix}{key}.")


FUZZ_FIELDS = [(name, key) for name in ("zsign_dirac", "involution_norm",
                                        "random_agreement", "single_crossing",
                                        "circle_signature")
               for key in _field_keys(_fuzz_base(name))]
FUZZ_VALUES = (None, True, 0, -1, 1.5, 1e300, "", "x", "false", [], {}, [[1, 1.0]],
               DELETE)


@seed(8800)
@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), value=st.sampled_from(FUZZ_VALUES))
@example(field=("involution_norm", "assertions.value_tolerance"), value=None)
@example(field=("random_agreement", "engine_params.chi"), value=[[1, 1.0]])
@example(field=("random_agreement", "aps.enabled"), value="false")
@example(field=("single_crossing", "aps.L"), value=1e300)
def test_scenario_fuzz_exits_with_a_documented_code(field, value):
    # one field set to an odd value or deleted: sfcalc run answers with an
    # exit code, never with an exception
    name, key = field
    doc = _fuzz_base(name)
    _set_path(doc, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        scen = os.path.join(tmp, "fuzz.json")
        with open(scen, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["run", scen, "--out", os.path.join(tmp, "out")]) in (0, 1, 2, 3)
