"""Run the benchmark in pairs: a parent checkout against this one.

    python tools/bench_pairs.py PARENT --workload W --pairs N --seconds S [--size tiny] [--seed K]
    python tools/bench_pairs.py PARENT --interleave --workload W --seconds S [--size tiny]
                                [--seed K]

Each pair runs ``bench/run.py --trace 0`` once in PARENT and once in the
checkout that holds this file, each from the root of its own checkout, so
each side imports its own ``src/``.  The side that goes first alternates
from pair to pair.  For every end-to-end metric that ``BENCHMARK.json``
lists, the script prints both sides' medians, the interquartile range of
each side's runs, in how many pairs the change read better (ties count
for neither side) and a verdict, then each side's failed and attempted ops.
After each pair it prints every such metric of both sides.
The verdict, from the metric's direction and bound in ``BENCHMARK.json``:

- ``gain``: at least MIN_PAIRS pairs, the change won at least 9 in 10 of
  them, and its median is better than the parent's by more than the
  parent's IQR; ``too few pairs`` when only the pair count falls short;
- ``worse``: the change's median is worse than the parent's by more than
  the bound (a fraction of the parent's median);
- ``unresolved``: the parent's IQR is wider than the bound (as a fraction
  of its median), and not every change run beat every parent run;
- ``same`` otherwise.

The failed ops get a verdict of their own: ``worse`` when the change
failed a larger share of its attempted ops than the parent did, ``same``
otherwise.

``--interleave`` pairs single ops instead of whole runs, so that the
host's speed regimes, which last seconds to minutes, fall on both sides
alike.  Each of ROUNDS rounds starts two long-lived ``tools/pair_worker.py``
processes, one per checkout, the start order swapped from round to round,
and runs paired ops for its share of ``--seconds``: both workers get the
same op index, and which side runs first alternates op by op (ABBA).  The
estimate is exp(median(log(change/parent))) of the op times over the ops
both sides passed, pooled over the rounds, with a bootstrap 95 % CI; below
1 the change is faster.  Its verdict, against the same-code bias
BIAS_BOUND: ``gain`` when the CI lies wholly below 1/(1 + BIAS_BOUND),
``worse`` wholly above 1 + BIAS_BOUND, ``same`` wholly between them, and
``unresolved`` across either edge.  ``setup_s`` and ``peak_rss_mb`` are
not per-op metrics; they keep the run-level pairs.

It gates nothing: the exit code is 0 when every run completed, 1 when one
did not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, args) -> dict:
    """The last line of one ``--trace 0`` run in ``checkout``, parsed."""
    command = [
        sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


MIN_PAIRS = 10  # fewest pairs from which a gain is claimed


def verdict(spec: dict, old: np.ndarray, new: np.ndarray) -> str:
    """``gain``, ``too few pairs``, ``worse``, ``unresolved`` or ``same`` for
    one metric's paired runs (see the module docstring)."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    old, new = sign * old, sign * new  # higher is better from here on
    q1, q3 = np.percentile(old, [25, 75])
    median_old, median_new = np.median(old), np.median(new)
    won = int(np.sum(new > old))
    if 10 * won >= 9 * len(old) and median_new - median_old > q3 - q1:
        return "gain" if len(old) >= MIN_PAIRS else "too few pairs"
    if median_old - median_new > spec["bound"] * abs(median_old):
        return "worse"
    if q3 - q1 > spec["bound"] * abs(median_old) and not new.min() > old.max():
        return "unresolved"
    return "same"


def failed_verdict(old_failed: int, old_attempted: int, new_failed: int, new_attempted: int) -> str:
    """``worse`` when the change's failed share of its ops exceeds the parent's."""
    return "worse" if new_failed * old_attempted > old_failed * new_attempted else "same"


def summarize(metrics, parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric, then the ops each side failed."""
    lines = [f"# {'metric':<12} {'unit':<5} {'parent':>10} {'change':>10} "
             f"{'parent_iqr':>10} {'change_iqr':>10}  change_won  verdict"]
    for spec in metrics:
        name = spec["name"]
        old = np.array([run["metrics"][name]["value"] for run in parent])
        new = np.array([run["metrics"][name]["value"] for run in change])
        (q1, q3), (r1, r3) = np.percentile(old, [25, 75]), np.percentile(new, [25, 75])
        sign = 1.0 if spec["better"] == "higher" else -1.0
        won = int(np.sum(sign * (new - old) > 0))
        lines.append(f"  {name:<12} {spec['unit']:<5} {np.median(old):>10.4g} "
                     f"{np.median(new):>10.4g} {q3 - q1:>10.4g} {r3 - r1:>10.4g}  "
                     f"{f'{won}/{len(old)}':<10}  {verdict(spec, old, new)}")
    counts = [(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
              for runs in (parent, change)]
    lines.append("  parent failed {} of {} ops".format(*counts[0]))
    lines.append("  change failed {} of {} ops  {}".format(
        *counts[1], failed_verdict(*counts[0], *counts[1])))
    return lines


# -- interleaved ops ----------------------------------------------------------

ROUNDS = 2  # worker pairs, the start order swapped from one to the next
# Round r times ops from index (r + 1) * ROUND_INDICES: rounds see different
# inputs, and none that a worker warmed up on (the first few indices).
ROUND_INDICES = 1_000_000
BOOTSTRAP = 2000  # resamples of the pooled log ratios
# Same code on both sides reads within this fraction of 1.  Measured HEAD
# against HEAD, 3 runs of 40 s per gated workload, seed 7, 2 cores: ratios
# 0.9932-1.0013, and the widest CI reached 0.9863 (cli_scenarios).
BIAS_BOUND = 0.015
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def paired_ratio(parent_ms, change_ms, seed: int = 0) -> tuple[float, float, float]:
    """exp(median(log(change/parent))) over paired op times, and the 2.5th
    and 97.5th percentiles of the same median over BOOTSTRAP resamples."""
    logs = np.log(np.asarray(change_ms, dtype=float) / np.asarray(parent_ms, dtype=float))
    rng = np.random.default_rng(seed)
    medians = [np.median(logs[rng.integers(0, logs.size, (100, logs.size))], axis=1)
               for _ in range(BOOTSTRAP // 100)]  # 100 resamples at a time
    low, high = np.percentile(np.concatenate(medians), [2.5, 97.5])
    ratio, low, high = np.exp([np.median(logs), low, high])
    return float(ratio), float(low), float(high)


def ratio_verdict(low: float, high: float, bias: float = BIAS_BOUND) -> str:
    """``gain``, ``worse``, ``same`` or ``unresolved`` for a change/parent
    op-time CI (see the module docstring)."""
    if high < 1.0 / (1.0 + bias):
        return "gain"
    if low > 1.0 + bias:
        return "worse"
    if 1.0 / (1.0 + bias) <= low and high <= 1.0 + bias:
        return "same"
    return "unresolved"


class PairWorker:
    """One running ``tools/pair_worker.py``, for one checkout."""

    def __init__(self, side: str, checkout: Path, args) -> None:
        self.side = side
        self.stderr = tempfile.TemporaryFile()
        command = [
            sys.executable, str(ROOT / "tools" / "pair_worker.py"), str(checkout),
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        ]
        self.process = subprocess.Popen(
            command, cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True, env={**os.environ, **BLAS_PIN},
        )
        if self._line() != "ready":
            self._fail()

    def _line(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            self._fail()
        return line.strip()

    def _fail(self):
        self.process.kill()
        self.process.wait()
        self.stderr.seek(0)
        message = self.stderr.read().decode(errors="replace")
        self.stderr.close()
        code = self.process.returncode
        raise RuntimeError(f"{self.side}: pair_worker.py exited {code}\n{message}")

    def run(self, index: int) -> dict:
        """Run op ``index``: ``{"ms": ..., "problems": [...]}``."""
        self.process.stdin.write(f"{index}\n")
        self.process.stdin.flush()
        return json.loads(self._line())

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            self.process.wait()
        self.stderr.close()


def interleave(args, sides: dict[str, Path]) -> int:
    """Run ROUNDS rounds of paired ops and print the pooled ratio."""
    print(f"# {args.workload}: interleaved ops, {ROUNDS} rounds of {args.seconds / ROUNDS:g} s, "
          f"seed {args.seed}, size {args.size}", flush=True)
    times: dict[str, list[float]] = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    both_passed = []  # indices into times of the ops both sides passed
    for round_ in range(ROUNDS):
        started = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
        workers = {}
        try:
            for side in started:
                workers[side] = PairWorker(side, sides[side], args)
            deadline = time.monotonic() + args.seconds / ROUNDS
            first = len(times["parent"])
            op = 0
            while time.monotonic() < deadline:
                index = (round_ + 1) * ROUND_INDICES + op
                order = ("parent", "change") if op % 4 in (0, 3) else ("change", "parent")
                passed = True
                for side in order:
                    out = workers[side].run(index)
                    times[side].append(out["ms"])
                    if out["problems"]:
                        failed[side] += 1
                        passed = False
                        print(f"# {side} op {index}: " + "; ".join(out["problems"]),
                              file=sys.stderr)
                if passed:
                    both_passed.append(len(times["parent"]) - 1)
                op += 1
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        finally:
            for worker in workers.values():
                worker.close()
        ours = [i for i in both_passed if i >= first]
        line = f"# round {round_ + 1}: {started[0]} started first, {op} ops a side"
        if ours:
            parent, change = (np.take(times[side], ours) for side in ("parent", "change"))
            line += f", ratio {paired_ratio(parent, change)[0]:.4f}"
        print(line, flush=True)
    attempted = len(times["parent"])
    print(f"# {'metric':<14} {'change/parent':>13} {'95% CI':>18}  bias_bound  verdict")
    if both_passed:
        parent, change = (np.take(times[side], both_passed) for side in ("parent", "change"))
        ratio, low, high = paired_ratio(parent, change, args.seed)
        print(f"  {'op_time_ratio':<14} {ratio:>13.4f} {f'[{low:.4f}, {high:.4f}]':>18}  "
              f"{BIAS_BOUND:<10g}  {ratio_verdict(low, high)}")
    else:
        print(f"  {'op_time_ratio':<14} {'none':>13} (no op passed on both sides)")
    print(f"  parent failed {failed['parent']} of {attempted} ops")
    print(f"  change failed {failed['change']} of {attempted} ops  "
          f"{failed_verdict(failed['parent'], attempted, failed['change'], attempted)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent commit's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, help="whole-run pairs (not with --interleave)")
    parser.add_argument("--interleave", action="store_true", help="pair single ops instead")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    if not (sides["parent"] / "bench" / "workloads.py").is_file():
        parser.error(f"{args.parent}: not a checkout with bench/workloads.py")
    if args.interleave:
        if args.pairs is not None:
            parser.error("--pairs does not apply to --interleave")
        return interleave(args, sides)
    if args.pairs is None or args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    print(f"# {args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seed {args.seed}, size {args.size}", flush=True)
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args))
            values = ", ".join(
                f"{spec['name']} {runs['parent'][-1]['metrics'][spec['name']]['value']:.4g}"
                f" / {runs['change'][-1]['metrics'][spec['name']]['value']:.4g}"
                for spec in metrics
            )
            print(f"# pair {pair + 1}: {order[0]} first; parent / change: {values}", flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(summarize(metrics, runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
