"""Smoke test of tools/report_digests.py."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_digests_prints_ten_digests(tmp_path):
    # Run from elsewhere: the script finds src/ and bench/ next to itself.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 10
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+\.json", line) for line in lines)
    digests = dict(reversed(line.split("  ")) for line in lines)
    for golden in ("block_tight.json", "quaternion_tight.json", "angle_counterexample.json",
                   "perturbation_demo.json"):
        expected = hashlib.sha256((ROOT / "tests" / "golden" / golden).read_bytes()).hexdigest()
        assert digests[golden] == expected
    assert list(tmp_path.iterdir()) == []


def test_bench_pairs_runs_one_tiny_pair_against_itself(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT),
         "--workload", "small_fibers", "--pairs", "1", "--seconds", "0.3", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].startswith("# pair 1: parent first")
    rows = {line.split()[0]: line.split() for line in lines[3:] if not line.startswith("#")}
    for name in ("ops_per_s", "op_tail_ms", "setup_s", "peak_rss_mb"):
        parent, change, iqr, won = rows[name][2:]
        assert float(parent) > 0 and float(change) > 0
        assert float(iqr) == 0.0  # one run per side
        assert won in ("0/1", "1/1")
    assert "  parent failed 0 of" in done.stdout
    assert "  change failed 0 of" in done.stdout
