"""One benchmark process: build a workload's inputs, then run it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It prints ``READY`` once sfcalc is imported and the inputs are
built, and one JSON line with its results at the end.  With
``--setup-only`` it exits after ``READY``.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
HARD_STOP_S = 150.0   # stop the timed loop here even if min_cases is not met


def _import_sfcalc():
    import sfcalc
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(sfcalc.__file__).startswith(src + os.sep):
        raise ImportError(f"sfcalc imported from {sfcalc.__file__}, not from {src}")


def _run_case(workload, case):
    """(ok, values) of one case; any exception counts as a failed case."""
    try:
        return workload.run_case(case)
    except Exception:  # a failed case is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return False, None


def timed_run(workload, cases, seconds):
    """Run cases in whole rounds until ``seconds`` have passed and at least
    ``workload.min_cases`` ran.

    Throughput is taken from the median round, so a burst of noise from
    other processes that covers less than half the run does not move it.
    Case times are pooled for the percentiles, unless the workload's cases
    differ so much in size that only whole rounds compare
    (``workload.tail_percentile is None``): then ``case_ms.p50`` and
    ``case_ms.tail`` are the medians over rounds of the mean and of the
    slowest case time.
    """
    clock = time.perf_counter
    times, labels, rounds, failed = [], [], [], 0
    start = clock()
    i = 0
    while True:
        case = cases[i % len(cases)]
        t0 = clock()
        ok, _ = _run_case(workload, case)
        times.append(clock() - t0)
        labels.append(workload.label(case))
        failed += not ok
        i += 1
        if i % workload.round_size:
            continue
        rounds.append(times[-workload.round_size:])
        elapsed = clock() - start
        if (elapsed >= seconds and i >= workload.min_cases) or elapsed >= HARD_STOP_S:
            break
    times = np.array(times)
    rounds = np.array(rounds)
    detail = {"timed_s": elapsed, "round_s": rounds.sum(axis=1).tolist(),
              "failed_ratio": failed / i}
    if workload.tail_percentile is None:
        p50 = float(np.median(rounds.mean(axis=1)))
        tail = float(np.median(rounds.max(axis=1)))
        detail["tail"] = f"slowest case of the median round, {len(rounds)} rounds"
    else:
        p50 = float(np.median(times))
        tail = float(np.percentile(times, workload.tail_percentile))
        detail["tail"] = (f"p{workload.tail_percentile} of {i} cases, "
                          f"{int(np.sum(times > tail))} beyond it")
    by_label = {}
    for label, t in zip(labels, times):
        by_label.setdefault(label, []).append(t)
    detail["run_s"] = {k: float(np.median(v)) for k, v in by_label.items()}
    return {
        "attempted": i,
        "failed": failed,
        "metrics": {
            "cases_per_s": workload.round_size / float(np.median(rounds.sum(axis=1))),
            "case_ms.p50": 1000.0 * p50,
            "case_ms.tail": 1000.0 * tail,
        },
        "detail": detail,
    }


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced passes over the same fixed inputs.

    Each pass builds ``workload.trace_cases`` cases from the seed and runs
    them.  The order is U, T, T, U, T, U, T, ... and ends after a traced
    pass once ``seconds`` have passed and at least two traced passes ran.
    """
    from tracing import COMPUTED, Tracer

    clock = time.perf_counter

    def one_pass(tracer):
        t0 = clock()
        with tracer or contextlib.nullcontext():
            cases = workload.build(seed, workload.trace_cases)
            results = []
            for k, case in enumerate(cases):
                if tracer is not None:
                    tracer.current_case = k
                results.append(_run_case(workload, case))
        return clock() - t0, results

    untraced_s, traced_s, per_pass = [], [], []
    reference = None
    problems = []
    failed = attempted = 0
    start = clock()
    schedule = ["U", "T", "T"]
    while True:
        kind = schedule.pop(0) if schedule else ("U" if len(traced_s) > len(untraced_s) else "T")
        tracer = Tracer() if kind == "T" else None
        dt, results = one_pass(tracer)
        attempted += len(results)
        failed += sum(not ok for ok, _ in results)
        values = [v for _, v in results]
        if reference is None:
            reference = values
        elif values != reference:
            problems.append(f"{kind} pass values differ from the first pass")
        if kind == "U":
            untraced_s.append(dt)
            continue
        traced_s.append(dt)
        per_pass.append(tracer.metrics())
        last = tracer
        elapsed = clock() - start
        if (elapsed >= seconds and len(traced_s) >= 2) or elapsed >= HARD_STOP_S:
            break

    first = per_pass[0]
    for m in per_pass[1:]:
        for key in COMPUTED + tuple(k for k in m if k.endswith((".calls", ".errors"))):
            if m[key] != first[key]:
                problems.append(f"{key} differs between traced passes: {first[key]} vs {m[key]}")
    for layer in workload.layers:
        if first[f"{layer}.calls"] == 0:
            problems.append(f"layer {layer} recorded no call")

    metrics = {}
    for key, value in first.items():
        if key.endswith(("_s", ".s")):
            metrics[key] = float(np.median([m[key] for m in per_pass]))
        else:
            metrics[key] = value
    metrics["trace_overhead_ratio"] = float(np.median(traced_s) / np.median(untraced_s))

    os.makedirs(OUT, exist_ok=True)
    np.savez_compressed(os.path.join(OUT, f"spans-{workload.name}.npz"),
                        names=np.array(last.names), **last.arrays())
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "problems": problems,
            "untraced_pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "trace_cases": workload.trace_cases,
            "spans_per_pass": len(last.start),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", required=True,
                        help="JSON file of result values from earlier runs of this source")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_sfcalc()
    import workloads

    workload = workloads.make(args.workload, os.path.join(OUT, "tmp"), args.reference)
    if args.trace:
        print("READY", flush=True)
        result = traced_run(workload, args.seed, args.seconds)
    else:
        cases = workload.build(args.seed, workload.pool_size)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = timed_run(workload, cases, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
