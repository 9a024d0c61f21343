"""nctransport benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload qiso_strict --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run repeats the workload's operation for about
``--seconds`` (at least once) and reports the end-to-end metrics named in
BENCHMARK.json: the wall time of the run's fastest operation (from the
first library call until its output has been checked), the median set-up
time of fresh interpreters, and the process's peak RSS.  The fastest
operation is reported rather than the median because the operations do
identical work, and on a shared host the slower ones measure the
neighbours' load (README.md has the numbers); the median and every sample
are printed on the line before the result.
With ``--trace 1`` it runs the operation once untraced and once with the
per-layer wrappers of tracing.py installed, and reports the per-layer table.
Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS is pinned before anything imports numpy; set-up children inherit it.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# The fewest fresh interpreters a run starts to time set-up; the median is
# reported.
SETUP_REPEATS = 11
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
from nctransport.cli import load_config
for path in sys.argv[2:]:
    load_config(path).context()
"""

sys.path.insert(0, HERE)
from workloads import COUNT_NAMES, WORKLOADS, compare_fields, load_expected  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import nctransport from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "nctransport", "__init__.py")):
        sys.exit(f"perfbench: no nctransport sources under {SRC}")
    sys.path.insert(0, SRC)
    import nctransport
    import nctransport.arakiwoods
    import nctransport.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(nctransport.__file__))) != SRC:
        sys.exit(f"perfbench: nctransport imported from {nctransport.__file__}, not {SRC}")
    return nctransport


def time_setup(configs: list[str]) -> float:
    """Seconds for one fresh interpreter to import and build the contexts."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, *configs], check=True)
    return time.perf_counter() - t0


class Runner:
    """Runs operations of one workload and checks each output."""

    def __init__(self, wl, nct):
        self.wl, self.nct = wl, nct
        self.expected = load_expected(wl.name) if wl.seed == 0 else None
        self.first_digest = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.last_out = None

    def check(self, out) -> list[str]:
        bad = self.wl.check(out)
        if self.expected is not None:
            bad += compare_fields(self.wl.fields(out), self.expected)
        digest = self.wl.digest(out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            bad.append("output differs from the first operation of this run")
        return bad

    def run_op(self, tracer=None) -> tuple[float, float]:
        """One operation; returns the seconds of the operation alone and of
        the operation plus its checks."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                out = self.wl.op(self.nct)
            t1 = time.perf_counter()
            bad = self.check(out)
        except Exception:
            t1 = time.perf_counter()
            bad = ["raised: " + traceback.format_exc(limit=3).strip()]
            out = None
        t2 = time.perf_counter()
        if bad:
            self.failed += 1
            self.problems += bad
        else:
            self.last_out = out
        return t1 - t0, t2 - t0


def context() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def metric_specs(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def pick(values: dict, kind: str) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs(kind)}


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # Set-ups are interleaved with the operations, about SETUP_REPEATS of
    # them evenly over the run, so that both sample the same stretch of time.
    setup, walls = [], []
    start = time.perf_counter()
    # Start another operation only if a typical one still fits in the run.
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        if len(setup) <= SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setup.append(time_setup(runner.wl.configs))
        walls.append(runner.run_op()[1])
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(runner.wl.configs))
    values = {
        "wall_s": min(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "wall_s_median": statistics.median(walls),
        "wall_s_samples": walls,
        "setup_s_samples": setup,
    }
    return values, detail


def traced(runner: Runner, spans_path: str) -> tuple[dict, dict]:
    from tracing import Tracer

    plain_s = runner.run_op()[0]
    tracer = Tracer()
    runner.run_op(tracer)
    values = tracer.table()
    values["trace.overhead_s"] = tracer.wall_s - plain_s
    values.update(dict.fromkeys(COUNT_NAMES, 0))
    if runner.last_out is not None:
        values.update(runner.wl.counts(runner.last_out))
    tracer.write_spans(spans_path)
    detail = {
        "untraced_op_s": plain_s,
        "self_time_sum_s": tracer.self_time_sum(),
        "spans": os.path.relpath(spans_path, ROOT),
        "span_count": len(tracer.spans),
    }
    return values, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    nct = import_library()
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare(nct.cli)
        runner = Runner(wl, nct)
        if args.trace:
            spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
            values, detail = traced(runner, spans)
            metrics = pick(values, "per_layer")
        else:
            values, detail = end_to_end(runner, args.seconds)
            metrics = pick(values, "end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    if "wall_s_median" in detail:
        print(f"  wall_s median {detail['wall_s_median']:.6g} s over "
              f"{len(detail['wall_s_samples'])} operations")
    print(f"  operations {runner.attempted}  failed {runner.failed}  "
          f"failed_frac {runner.failed / runner.attempted:g}")
    for problem in runner.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"context": context(), "timings": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
