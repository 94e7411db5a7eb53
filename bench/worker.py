"""One workload process: set up, warm up, run the timed phase, check each op.

``run.py`` starts this script in a fresh interpreter for every measurement,
with BLAS threads pinned to one, and reads the JSON object on the last line
of its standard output.  After set-up and warm-up it runs the timed phase
for ``--seconds``; in ``trace`` mode the ops alternate in pairs between
untraced and traced, and the spans are written to ``--trace-out``.  Op
indices start at ``--first-index``, so that the workers of one run see
different inputs.

``setup_s`` is measured from ``--t0``, the parent's ``time.monotonic()``
just before it started this process (a system-wide clock on Linux), to the
start of the first timed op.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WARMUP_OPS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_library():
    """Import cstar_fusion from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cstar_fusion" / "__init__.py").is_file():
        raise SystemExit(f"error: no cstar_fusion package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cstar_fusion

    if Path(cstar_fusion.__file__).resolve().parent != SRC / "cstar_fusion":
        raise SystemExit(f"error: imported cstar_fusion from {cstar_fusion.__file__}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            key: blas.get(key) for key in ("name", "version", "openblas configuration")
        },
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _run_one(workload, index: int, tracer=None) -> tuple[float, list[str]]:
    """Time one op, then check it outside the timed interval.

    With a tracer, the op runs traced; the tracer is installed before and
    removed after the timed interval.
    """
    inputs = workload.make_input(index)
    run = workload.op
    if tracer is not None:
        tracer.install()
        run = functools.partial(tracer.run_op, index, workload.op)
    error = None
    start = time.perf_counter_ns()
    try:
        out = run(inputs)
    except Exception:  # the benchmark keeps running; the op counts as failed
        error = traceback.format_exc(limit=4)
    elapsed = (time.perf_counter_ns() - start) / 1e6
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return elapsed, [error]
    try:
        problems = workload.check(inputs, out)
    except Exception:
        problems = [traceback.format_exc(limit=4)]
    return elapsed, problems


def timed_phase(
    workload, first: int, seconds: float, tracer=None
) -> tuple[dict, dict[bool, list[float]]]:
    """Closed loop: the next op starts when the previous one and its check end.

    With a tracer, ops alternate in pairs between untraced and traced (pairs,
    so that alternating inputs such as the two cli scenarios appear on both
    sides), and both sides see the same machine conditions.  Returns the
    phase summary and the latencies keyed by whether the op was traced.
    """
    latencies: dict[bool, list[float]] = {False: [], True: []}
    failed = 0
    problems: list[str] = []
    index = first
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        traced = tracer is not None and ((index - first) // 2) % 2 == 1
        elapsed, found = _run_one(workload, index, tracer if traced else None)
        latencies[traced].append(elapsed)
        if found:
            failed += 1
            if len(problems) < 5:
                problems.append(f"op {index}: " + "; ".join(found))
        index += 1
    phase = {
        "latencies_ms": latencies[False] + latencies[True],
        "failed": failed,
        "problems": problems,
    }
    return phase, latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--first-index", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    try:
        warmup_problems = []
        first = args.first_index
        for index in range(first, first + WARMUP_OPS):
            _elapsed, found = _run_one(workload, index)
            warmup_problems += [f"warm-up op {index}: {p}" for p in found]
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "warmup_problems": warmup_problems}
        if args.mode == "run":
            result.update(timed_phase(workload, first + WARMUP_OPS, args.seconds)[0])
        else:
            phase, tracer = trace_run(workload, first + WARMUP_OPS, args.seconds)
            result.update(phase)
    finally:
        workload.close()
    if args.mode == "trace" and args.trace_out is not None:
        tracer.write(args.trace_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def trace_run(workload, first: int, seconds: float):
    from tracing import Tracer

    tracer = Tracer()
    phase, latencies = timed_phase(workload, first, seconds, tracer)
    traced, untraced = latencies[True], latencies[False]
    summary = tracer.summary(len(traced), sum(traced))
    summary["trace.op_p50_ms"] = statistics.median(traced)
    summary["trace.untraced_op_p50_ms"] = statistics.median(untraced)
    summary["trace.overhead_ratio"] = (
        summary["trace.op_p50_ms"] / summary["trace.untraced_op_p50_ms"]
    )
    phase.update(
        per_layer=summary,
        spans_stored=len(tracer.span_start),
        spans_dropped=tracer.dropped,
        layers_expected=list(workload.layers),
    )
    return phase, tracer


if __name__ == "__main__":
    sys.exit(main())
