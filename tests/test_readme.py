"""README's library quick tour runs as written and gives the values its
comments state, and its report table names the keys a frame report has."""

import re
from pathlib import Path

import numpy as np

from cstar_fusion.cli import EXAMPLE_SCENARIOS, run_scenario
from cstar_fusion.scenario import build_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_runs_and_states_true_values():
    namespace: dict = {}
    exec(compile(quick_tour(), str(README), "exec"), namespace)
    bounds, result = namespace["bounds"], namespace["result"]
    assert bounds.is_frame
    np.testing.assert_allclose(bounds.lower.real_parts(), [1.0], rtol=1e-15)
    np.testing.assert_allclose(bounds.upper.real_parts(), [np.sqrt(2)], rtol=1e-15)
    assert result.rel_error <= 1e-15
    assert namespace["report"].threshold > 0


def test_frame_report_table_lists_the_keys_of_a_bounds_output():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("The frame report produced by `bounds`") :]
    table = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    keys = [line.split()[0] for line in table.splitlines()]
    scenario = build_scenario(EXAMPLE_SCENARIOS["block_tight.json"])
    report, _ = run_scenario(scenario, only="bounds")
    assert len(keys) == len(set(keys))
    assert set(keys) == set(report["results"][0]["output"])
