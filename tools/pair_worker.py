"""One side of an interleaved benchmark pair: a long-lived worker process.

    python tools/pair_worker.py CHECKOUT --workload W --seed K --size S

The worker imports CHECKOUT's own ``src/`` and ``bench/``, builds the
workload once through that checkout's ``bench/workloads.build`` and runs
its warm-up ops, then prints the line ``ready``.  Each line it then reads
from standard input is an op index: it runs that op, timed outside its
check as ``bench/worker.py`` times it, and prints one JSON line
``{"ms": <op time>, "problems": [...]}`` (an empty list when the op and its
check passed).  End of input closes the workload and ends the process.
``tools/bench_pairs.py --interleave`` drives two of these.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.checkout.resolve() / "bench"))
    import worker  # this checkout's bench/worker.py

    worker._import_library()  # this checkout's src/, or exit
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    try:
        for index in range(worker.WARMUP_OPS):
            worker._run_one(workload, index)
        print("ready", flush=True)
        for line in sys.stdin:
            elapsed, problems = worker._run_one(workload, int(line))
            print(json.dumps({"ms": elapsed, "problems": problems}), flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
