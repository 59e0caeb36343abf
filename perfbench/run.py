"""Benchmark for the kpod package in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec

Runs one workload (see spec.py) against the sources under ``src/`` next to
this directory, checks every result, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the loop runs untraced first and then once more under a tracer,
and the metrics are the per-layer ones. The exit code is 1 when a check
failed and 2 when the kpod sources are missing.

``--write-spec`` writes ``BENCHMARK.json`` and ``perfbench/environment.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

SETUPS = 7  # set-ups per run, of which setup_s is the median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=_seconds, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and perfbench/environment.json, then exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    return args


def plan(workload: str) -> tuple[int, int]:
    """Worker processes, and BLAS threads per process: at most one thread per core."""
    workers = min(2, nproc()) if workload == "campaign_small" else 1
    return workers, max(1, nproc() // workers)


def environment(threads) -> dict:
    """What a result depends on besides the code: interpreter, numpy, BLAS, threads, CPU."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc(),
        "cpu": cpu,
    }


def write_spec() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    threads = {w["name"]: plan(w["name"])[1] for w in spec.WORKLOADS}
    (HERE / "environment.json").write_text(json.dumps(environment(threads), indent=2) + "\n")


def probe_setup(args) -> float:
    """Set the workload up in a fresh interpreter and return its set-up seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if not (SRC / "kpod" / "__init__.py").is_file():
        print(f"perfbench: no kpod sources at {SRC}", file=sys.stderr)
        return 2

    # The thread variables must be set before numpy loads.
    workers, threads = plan(args.workload)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import kpod
    import_s = time.perf_counter() - start
    if Path(kpod.__file__).resolve().parent != (SRC / "kpod").resolve():
        print(f"perfbench: imported kpod from {kpod.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, workers, SCRATCH)
    start = time.perf_counter()
    inputs = workload.setup(args.seed)
    setup_s = import_s + time.perf_counter() - start
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print("environment " + json.dumps(environment(threads)))
    checks = workloads.Checks()
    try:
        names, values = run(args, workload, inputs, setup_s, checks)
    except Exception as exc:  # the result line still reports the failure
        checks.crashed(args.workload, exc)
        names, values = [], {}
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    for problem in checks.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name, unit, *_ in names:
        print(f"{args.workload} {name} = {values[name]!r} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in names},
    }))
    return 0 if checks.failed == 0 else 1


def run(args, workload, inputs, setup_s: float, checks):
    """Measure, and trace if asked; print the counts; return the metric names and values."""
    measured = workload.measure(inputs, args.seconds, checks)
    if args.trace:
        values = workload.traced(args.seed, measured, checks)
        if measured.counts.get("mm.rounds", values["mm.rounds"]) != values["mm.rounds"]:
            checks.record("traced run", [f"mm.rounds {values['mm.rounds']} traced, "
                                         f"{measured.counts['mm.rounds']} untraced"])
        counts = dict(measured.counts, **{
            key: values[key] for key in ("kmeans.sweeps", "kmeans.assign_flops", "mm.rounds",
                                         "csv_io.read_bytes", "csv_io.write_bytes")})
        names = spec.PER_LAYER
    else:
        # After the loop: the probes are child processes too, and peak_rss_mb
        # of campaign_small counts only its workers.
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUPS - 1)]
        values = dict(measured.metrics, setup_s=statistics.median(setups))
        counts = measured.counts
        names = spec.END_TO_END
    print("counts " + json.dumps(counts))
    print("samples " + json.dumps(measured.samples))
    return names, values


if __name__ == "__main__":
    sys.exit(main())
