"""sfcalc benchmark: time to a verified result, and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload engine_agreement --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0

With ``--trace 0`` each workload runs untraced in its own process and the
end-to-end metrics are reported; with ``--trace 1`` the per-layer metrics of
a traced run are reported instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import metric_units  # noqa: E402  (imports numpy only)

WORKLOADS = ("engine_agreement", "index_interval", "scenario_run")
END_TO_END = {"setup_s": "s", "cases_per_s": "1/s", "case_ms.p50": "ms",
              "case_ms.tail": "ms", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 7        # set-up measured this many times per untraced run
WORKER_TIMEOUT_S = 170.0
BLAS_THREADS = "1"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("SFCALC_SEED", None)   # would override the bundled scenario seeds
    for name in THREAD_ENV:
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = SRC
    return env


def start_worker(workload, seed, seconds, trace, setup_only=False):
    """Start a worker; return (process, kill timer, seconds from start to READY)."""
    reference = os.path.join(OUT, f"reference-{src_digest()[0]}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--reference", reference]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, killer)
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, killer, ready


def finish(proc, killer):
    """Wait for a worker; return its last output line."""
    try:
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return lines[-1] if lines else ""


def python_loops_per_s(seconds=0.5):
    """Rate of a fixed pure-Python loop: how fast this host runs right now.

    Other tenants of a shared host can change it by tens of percent within
    minutes, so it is recorded next to every result to explain such drift.
    """
    clock = time.perf_counter
    start = clock()
    n = 0
    while clock() - start < seconds:
        sum(range(10000))
        n += 1
    return n / (clock() - start)


def src_digest():
    """(sha256 prefix, line count) of the Python sources under src/."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest()[:16], lines


def fingerprint():
    """Machine and code identity recorded next to every result."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest, lines = src_digest()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    env = worker_env()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: env.get(name) for name in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": digest,
        "src_lines": lines,
        "python_loops_per_s": python_loops_per_s(),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload in fresh processes; return the result record."""
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, killer, ready = start_worker(workload, seed, seconds, 0, setup_only=True)
            finish(proc, killer)
            setups.append(ready)
    proc, killer, ready = start_worker(workload, seed, seconds, trace)
    setups.append(ready)
    out = json.loads(finish(proc, killer))

    detail = out["detail"]
    units = metric_units() if trace else END_TO_END
    metrics = dict(out["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = out["peak_rss_mb"]
        detail["setup_samples_s"] = setups
    problems = detail.get("problems", [])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": out["failed"] == 0 and not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "detail": detail,
        "fingerprint": fingerprint(),
    }


def print_report(record):
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}) ==")
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    detail = record["detail"]
    if not record["trace"]:
        print(f"  {'failed_ratio':45s} {detail['failed_ratio']:>16.6g} 1")
        print(f"  case_ms.tail is the {detail['tail']}")
        if record["workload"] == "scenario_run":
            for label, t in sorted(detail["run_s"].items()):
                print(f"  {'run_s.' + label:45s} {t:>16.6g} s")
    for problem in detail.get("problems", []):
        print(f"  PROBLEM: {problem}")
    print(f"  fingerprint: {json.dumps(record['fingerprint'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sfcalc", "__init__.py")):
        print(f"perfbench: no sfcalc sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace)
            print_report(record)
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    for record in records:
        path = os.path.join(OUT, f"{record['workload']}-seed{record['seed']}"
                                 f"-trace{record['trace']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    for record in records:
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
