"""Smoke tests of tools/report_digests.py and tools/bench_pairs.py."""

import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_report_digests_prints_ten_digests(tmp_path):
    # Run from elsewhere: the script finds src/ and bench/ next to itself.
    # Under -W error, a numpy warning on any of the reports' paths fails here.
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "report_digests.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert len(lines) == 10
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+\.json", line) for line in lines)
    digests = dict(reversed(line.split("  ")) for line in lines)
    golden = ROOT / "tests" / "golden"
    expected = {name: hashlib.sha256((golden / name).read_bytes()).hexdigest()
                for name in ("block_tight.json", "quaternion_tight.json",
                             "angle_counterexample.json", "perturbation_demo.json")}
    # The 6 bench-size reports are pinned by their digests alone.
    bench = (golden / "bench_digests.txt").read_text().splitlines()
    expected.update(reversed(line.split("  ")) for line in bench)
    assert len(expected) == 10
    assert digests == expected
    assert list(tmp_path.iterdir()) == []


def test_bench_pairs_runs_one_tiny_pair_against_itself(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT),
         "--workload", "small_fibers", "--pairs", "1", "--seconds", "0.3", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].startswith("# pair 1: parent first; parent / change: ")
    assert lines[2].split()[-4:] == ["parent_iqr", "change_iqr", "change_won", "verdict"]
    rows = {line.split()[0]: line.split(maxsplit=7) for line in lines[3:] if not line.startswith("#")}
    names = ("ops_per_s", "op_tail_ms", "setup_s", "peak_rss_mb")
    # The pair's line names every metric with both sides' values.
    pair = {name: (old, new) for name, old, new in
            re.findall(r"(\w+) (\S+) / (\S+?)(?:,|$)", lines[1].split(": ", 2)[2])}
    assert set(pair) == set(names)
    assert all(float(old) > 0 and float(new) > 0 for old, new in pair.values())
    for name in names:
        parent, change, parent_iqr, change_iqr, won, verdict = rows[name][2:]
        assert float(parent) > 0 and float(change) > 0
        assert float(parent_iqr) == float(change_iqr) == 0.0  # one run per side
        assert won in ("0/1", "1/1")
        # One pair never shows a gain; with no spread, nothing is unresolved.
        assert verdict in ("too few pairs", "worse", "same")
        assert verdict == "too few pairs" if won == "1/1" else verdict in ("worse", "same")
    assert "  parent failed 0 of" in done.stdout
    assert "  change failed 0 of" in done.stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = list(range(100, 110))  # median 104.5, IQR 4.5: 4.3 % of the median


@pytest.mark.parametrize(
    "better, parent, change, expected",
    [
        # 9 of 10 pairs won, medians 9 apart
        ("higher", PARENT, [110, 111, 112, 113, 114, 115, 116, 117, 118, 50], "gain"),
        ("lower", PARENT, [90, 91, 92, 93, 94, 95, 96, 97, 98, 150], "gain"),
        # 9 of 9 won: one pair short
        ("higher", PARENT[:9], range(110, 119), "too few pairs"),
        # 10 of 10 won, but by less than the parent's IQR
        ("higher", PARENT, range(101, 111), "same"),
        # 8 of 10 won
        ("higher", PARENT, [110, 111, 112, 113, 114, 115, 116, 117, 50, 50], "same"),
        # the median 30 % worse, beyond the bound of 25 %
        ("higher", [100] * 10, [70] * 10, "worse"),
        ("lower", [100] * 10, [130] * 10, "worse"),
        # a parent IQR of 40 % of its median, and the runs overlap
        ("higher", [60, 80, 100, 120, 140] * 2, [70, 90, 110, 130, 150] * 2, "unresolved"),
        # an IQR of 100 %, but every change run beats every parent run
        ("higher", [0, 10, 10, 10, 40, 40, 50, 50, 50, 50], [51] * 10, "same"),
    ],
)
def test_bench_pairs_verdict(better, parent, change, expected):
    spec = {"better": better, "bound": 0.25}
    old, new = np.array(parent, dtype=float), np.array(change, dtype=float)
    assert _bench_pairs().verdict(spec, old, new) == expected


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ((0, 100), (0, 90), "same"),
        ((0, 100), (1, 100), "worse"),
        # 2 % against 2.5 %, and 2 % against 1.9 %
        ((2, 100), (2, 80), "worse"),
        ((2, 100), (2, 105), "same"),
        ((121, 121), (121, 121), "same"),
    ],
)
def test_bench_pairs_failed_share_verdict(parent, change, expected):
    assert _bench_pairs().failed_verdict(*parent, *change) == expected


def test_bench_pairs_interleaves_one_tiny_run_against_itself(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT), "--interleave",
         "--workload", "small_fibers", "--seconds", "0.6", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# small_fibers: interleaved ops, 2 rounds of 0.3 s")
    assert lines[1].startswith("# round 1: parent started first, ")
    assert lines[2].startswith("# round 2: change started first, ")
    row = re.fullmatch(r"  op_time_ratio +(\S+) +\[(\S+), (\S+)\] +(\S+) +(\w+)", lines[4])
    ratio, low, high, bias, verdict = row.groups()
    assert float(bias) == _bench_pairs().BIAS_BOUND
    assert 0 < float(low) <= float(ratio) <= float(high)
    assert verdict in ("gain", "worse", "same", "unresolved")
    assert re.fullmatch(r"  parent failed 0 of [1-9]\d* ops", lines[5])
    assert re.fullmatch(r"  change failed 0 of [1-9]\d* ops  same", lines[6])
    assert list(tmp_path.iterdir()) == []


def _latencies(ratio: float, count: int, noise: float, seed: int):
    """Paired op times in ms: a host that switches between speed regimes
    (15, 28 and 16 ms ops), each side with its own lognormal noise, and
    the change's ops ``ratio`` times the parent's."""
    rng = np.random.default_rng(seed)
    host = np.repeat([15.0, 28.0, 16.0], -(-count // 3))[:count]
    parent = host * rng.lognormal(0.0, noise, count)
    change = ratio * host * rng.lognormal(0.0, noise, count)
    return parent, change


@pytest.mark.parametrize("ratio", [0.97, 1.0, 1.031, 1.12])
def test_the_paired_ratio_recovers_a_known_ratio(ratio):
    estimate, low, high = _bench_pairs().paired_ratio(*_latencies(ratio, 800, 0.02, seed=5))
    assert low < ratio < high
    assert abs(estimate / ratio - 1) < 0.003
    assert high / low < 1.01  # 800 paired ops resolve a few percent


@pytest.mark.parametrize(
    "ratio, count, noise, expected",
    [
        (0.95, 800, 0.02, "gain"),
        (1.05, 800, 0.02, "worse"),
        (1.0, 800, 0.02, "same"),
        (1.0, 20, 0.2, "unresolved"),  # too few ops for their noise
        (1.01, 800, 0.02, "unresolved"),  # on the bias bound's edge
    ],
)
def test_the_interleaved_verdict(ratio, count, noise, expected):
    tool = _bench_pairs()
    _, low, high = tool.paired_ratio(*_latencies(ratio, count, noise, seed=6))
    assert tool.ratio_verdict(low, high, bias=0.01) == expected
