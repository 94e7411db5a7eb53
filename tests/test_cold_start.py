"""What a fresh process imports: the library loads no numpy module it does
not use.  ``numpy.ma`` costs a process about 1 MiB and 10 ms, and numpy 2's
set routines (``np.unique`` and the like) import it; ``numpy.random`` is
imported only by a command that draws from it.  Each check is skipped
where ``import numpy`` alone loads the module, as numpy 1.x does."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cstar_fusion
from cstar_fusion.cli import EXAMPLE_SCENARIOS, write_examples

SRC = Path(cstar_fusion.__file__).parents[1]

# Each script prints whether ``import numpy`` alone loaded the module, then
# whether it was loaded when the script ended.
PREAMBLE = """
import json, sys
import numpy as np
preloaded = MODULE in sys.modules
import cstar_fusion as cf
from cstar_fusion import cli
"""
EPILOGUE = """
print(json.dumps([preloaded, MODULE in sys.modules]))
"""

# The small_fibers benchmark op, at its tiny size, through the public API.
SMALL_FIBERS_OP = """
rng = np.random.default_rng(7)
n, m, count, rank = 6, 4, 4, 2
shape = cf.ModuleShape(cf.COMPLEX, (m,) * n)
gauss = lambda *size: rng.standard_normal(size) + 1j * rng.standard_normal(size)
subs = [cf.span_submodule(shape, gauss(n, rank, m)) for _ in range(count)]
weights = cf.WeightSequence.from_matrix(cf.COMPLEX, rng.uniform(0.5, 2.0, (count, n)))
frame = cf.WeightedFrame(subs, weights)
cf.frame_bounds(frame)
cf.tightness(frame)
x = cf.ModuleVector(shape, gauss(n, m))
cf.reconstruct(frame, x)
cf.synthesis_adjoint(frame, cf.synthesis(frame, x))
mapping = cf.OrthoMap(shape, rng.uniform(0.5, 2.0, n), np.linalg.qr(gauss(n, m, m))[0])
cf.frame_bounds(cf.transport_frame(mapping, frame))
cf.perturbation_check(frame, cf.randomly_rotated(frame.submodules, 0.05, rng))
"""


def _loaded(module: str, body: str, cwd: Path) -> bool:
    """Whether ``module`` is loaded after ``body`` runs in a fresh process
    (skipped when ``import numpy`` loads it)."""
    script = PREAMBLE + textwrap.dedent(body) + EPILOGUE
    done = subprocess.run(
        [sys.executable, "-c", script.replace("MODULE", repr(module))],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    preloaded, loaded = json.loads(done.stdout.splitlines()[-1])
    if preloaded:
        pytest.skip(f"import numpy loads {module}")
    return loaded


def test_no_library_path_imports_numpy_ma(tmp_path):
    write_examples(tmp_path)
    runs = "".join(f"assert cli.main(['run', {name!r}, '--out', 'report.json']) == 0\n"
                   for name in sorted(EXAMPLE_SCENARIOS))
    assert not _loaded("numpy.ma", SMALL_FIBERS_OP + runs, tmp_path)


def test_a_run_that_draws_nothing_never_imports_numpy_random(tmp_path):
    # angle_counterexample has no verify-oracle and no rotate perturbation.
    write_examples(tmp_path)
    run = "assert cli.main(['run', 'angle_counterexample.json', '--out', 'report.json']) == 0\n"
    assert not _loaded("numpy.random", run, tmp_path)
    # Its report is the golden one: no stream was needed for it.
    golden = Path(__file__).parent / "golden" / "angle_counterexample.json"
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()
