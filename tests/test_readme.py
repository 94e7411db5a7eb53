"""README's library quick tour runs as written and gives the values its
comments state."""

import re
from pathlib import Path

import numpy as np

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
