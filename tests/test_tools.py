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
