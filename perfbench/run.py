"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_default --seed 1 --seconds 20 \\
        --trace 0

The package is imported from ``src/`` of the checkout, single-threaded.
A run first times ``SETUP_PROBES`` fresh processes that only set up
(imports, input generation, warm-up), then sets up itself and repeats
whole rounds of the workload's operations until ``--seconds`` have
passed.  With ``--trace 0`` it reports the end-to-end metrics of
untraced rounds; with ``--trace 1`` untraced and traced rounds alternate
and it reports the per-layer metrics, with the tracing overhead as the
traced rounds' median over the untraced rounds' median.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  Spans of a traced run go to ``perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One thread per run: the numeric libraries must not start a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# A fixed mmap threshold (glibc's M_MMAP_THRESHOLD) stops the allocator
# from moving it with the allocation history, so every large array is
# mapped and unmapped on its own and peak RSS follows the live arrays.
_M_MMAP_THRESHOLD = -3
try:
    ctypes.CDLL(ctypes.util.find_library("c")).mallopt(_M_MMAP_THRESHOLD,
                                                       256 * 1024)
except (OSError, AttributeError, TypeError):
    pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench_out")
SETUP_PROBES = 7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then exit (used to time set-up)")
    return parser.parse_args(argv)


def time_setup(args) -> list[float]:
    """Spawn-to-exit times of processes that only set up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def set_up(name: str, seed: int, scratch: str):
    import workloads
    workload = workloads.WORKLOADS[name](ROOT, seed, scratch)
    workload.warm_up()
    return workload


def run_rounds(workload, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` pass; with tracing, untraced and
    traced rounds alternate and at least one of each runs."""
    import tracing
    tracer = tracing.Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        traced_round = trace and index % 2 == 1
        undo = tracing.install(tracer) if traced_round else None
        recorder = tracer if traced_round else tracing.NullTracer()
        began = time.perf_counter()
        try:
            with recorder.span("bench.round"):
                workload.run_round(index, recorder)
        finally:
            if undo:
                undo()
        (traced if traced_round else untraced).append(
            time.perf_counter() - began)
        workload.end_round(index)
        index += 1
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    return untraced, traced, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    frozen = os.path.join(ROOT, "tests", "_frozen.py")
    if not os.path.isdir(os.path.join(src, "interbank")) or not os.path.isfile(
            frozen):
        print(f"perfbench: {src}/interbank and {frozen} are needed; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        scratch = tempfile.mkdtemp(prefix=f"{args.workload}-setup-", dir=OUT)
        try:
            set_up(args.workload, args.seed, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return 0

    setup = time_setup(args)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = set_up(args.workload, args.seed, scratch)
        untraced, traced, tracer = run_rounds(workload, args.seconds,
                                              bool(args.trace))
        workload.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    import numpy
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
          f" numpy={numpy.__version__}")
    wall = statistics.median(untraced)
    print(f"rounds: {len(untraced)} untraced, median {wall:.4f} s, range "
          f"{min(untraced):.4f}-{max(untraced):.4f} s; {len(traced)} traced")
    if args.trace:
        import tracing
        traced_wall = statistics.median(traced)
        overhead = 100.0 * (traced_wall / wall - 1.0)
        metrics = tracing.layer_metrics(tracer, len(traced), overhead)
        self_sum = sum(value for name, (value, _) in metrics.items()
                       if name.endswith(".self_ms")) / 1e3
        print(f"traced round median {traced_wall:.4f} s; self times sum to "
              f"{self_sum:.4f} s per traced round; overhead {overhead:.2f} %")
        trace_file = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracing.dump(tracer, trace_file)
        print(f"spans: {len(tracer.spans)} written to {trace_file}")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in workload.notes[:5]:
        print(f"failed operation: {note}", file=sys.stderr)
    for problem in workload.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
