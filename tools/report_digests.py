"""Print the SHA-256 digest of every report that a change must keep byte-identical.

    python tools/report_digests.py

One ``<sha256>  <name>`` line for each of the 4 bundled example reports (as
``cstar-fusion run <name> --out`` writes them) and for the 6 bench-size
``cli_scenarios`` reports: the quaternion and the complex scenario that
``bench/workloads.py`` builds at seeds 1, 7 and 12345.  The library is
imported from the ``src/`` next to this file, so running the script in two
checkouts and diffing the outputs compares their reports.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from cstar_fusion.cli import main, write_examples  # noqa: E402
from workloads import SIZES, complex_scenario, quaternion_scenario  # noqa: E402

SEEDS = (1, 7, 12345)


def _bench_scenarios(seed: int) -> dict[str, dict]:
    """The two ``cli_scenarios`` documents of one seed, drawn as the benchmark
    draws them: one stream, quaternion first."""
    sizes = SIZES["cli_scenarios"]["full"]
    rng = np.random.default_rng([seed, 0])
    return {
        f"cli_scenarios-seed{seed}-quaternion": quaternion_scenario(
            rng, seed % 2**32, **sizes["quaternion"]
        ),
        f"cli_scenarios-seed{seed}-complex": complex_scenario(
            rng, seed % 2**32, **sizes["complex_"]
        ),
    }


def report_digests(workdir: Path) -> list[tuple[str, str]]:
    """(digest, name) of each report, written under ``workdir``."""
    scenarios = [(path.name, path) for path in write_examples(workdir / "examples")]
    for seed in SEEDS:
        for name, doc in _bench_scenarios(seed).items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc))
            scenarios.append((f"{name}.json", path))
    digests = []
    for name, path in scenarios:
        report = path.with_suffix(".report.json")
        main(["run", str(path), "--out", str(report)])  # a failed command still writes
        digests.append((hashlib.sha256(report.read_bytes()).hexdigest(), name))
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for digest, name in report_digests(Path(tmp)):
            print(f"{digest}  {name}")
