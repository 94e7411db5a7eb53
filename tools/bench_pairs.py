"""Run the benchmark in pairs: a parent checkout against this one.

    python tools/bench_pairs.py PARENT --workload W --pairs N --seconds S [--size tiny] [--seed K]

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

It gates nothing: the exit code is 0 when every run completed, 1 when one
did not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent commit's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
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
