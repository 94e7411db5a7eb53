"""randomly_rotated against its documented two-call stream, bit for bit.

The reference below draws, over the fibers of dimension m >= 2 of the whole
family (submodule by submodule, fiber by fiber), every plane's rank with one
``rng.integers(0, m * (m - 1))`` call and then every angle with one
``rng.uniform(0, max_angle, size=count)`` call, and unranks each plane in a
plain loop.  The rotated fibers and the generator's whole state afterwards
must be equal, not close, for every bit generator.
"""

import logging
from pathlib import Path

import numpy as np
import pytest

from cstar_fusion import (
    COMPLEX,
    ModuleShape,
    Submodule,
    block_submodule,
    randomly_rotated,
)
from cstar_fusion import perturbation
from cstar_fusion.hilbert_module import _adjoint
from helpers import random_quaternion_frame, random_span_submodule, rotation_draws

ALL_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.SFC64,
    np.random.MT19937,
)
SRC = Path(__file__).resolve().parents[1] / "src" / "cstar_fusion"


def ref_rotated(submodules, max_angle, rng):
    dims = [m for sub in submodules for m in sub.shape.dims]
    all_planes, all_thetas = rotation_draws(dims, max_angle, rng)
    moved = []
    start = 0
    for sub in submodules:
        shape = sub.shape
        fibers = slice(start, start + shape.fiber_count)
        start += shape.fiber_count
        planes, thetas = shape.gather(all_planes[fibers]), shape.gather(all_thetas[fibers])
        blocks = dict(sub.blocks)
        for m in blocks.keys() - {1}:
            i, j = planes[m].T
            cos, sin = np.cos(thetas[m]), np.sin(thetas[m])
            giv = np.tile(np.eye(m), (len(cos), 1, 1))
            rows = np.arange(len(cos))
            giv[rows, i, i] = giv[rows, j, j] = cos
            giv[rows, i, j] = -sin
            giv[rows, j, i] = sin
            rotated = giv @ blocks[m] @ np.swapaxes(giv, -1, -2)
            blocks[m] = (rotated + _adjoint(rotated)) / 2.0
        moved.append(Submodule(shape, blocks))
    return moved


def same_state(first, second):
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(same_state(first[k], second[k]) for k in first)
    return type(first) is type(second) and np.array_equal(first, second)


def twin_generators(bit_generator, seed, buffered_half=False):
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if buffered_half:
        for rng in pair:
            rng.integers(0, 7)  # one bounded 32-bit draw leaves the high half buffered
    return pair


def assert_same_rotation(submodules, max_angle, ours, theirs, ref_angle=None):
    got = randomly_rotated(submodules, max_angle, ours)
    want = ref_rotated(submodules, max_angle if ref_angle is None else ref_angle, theirs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.blocks.keys() == w.blocks.keys()
        for m in g.blocks:
            assert np.array_equal(g.blocks[m], w.blocks[m])
            assert g.blocks[m].tobytes() == w.blocks[m].tobytes()  # signed zeros too
    assert same_state(ours.bit_generator.state, theirs.bit_generator.state)


def complex_family(rng, dims, count=3):
    shape = ModuleShape(COMPLEX, dims)
    return [random_span_submodule(rng, shape) for _ in range(count)]


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("buffered_half", [False, True], ids=["empty-buffer", "buffered-half"])
@pytest.mark.parametrize(
    "dims",
    [(2, 2, 2, 2, 2), (3, 1, 4, 3, 2, 1, 4, 4), (1, 7, 12, 2, 1, 5)],
    ids=["m2-only", "mixed", "wider"],
)
def test_matches_the_two_call_reference(bit_generator, buffered_half, dims):
    subs = complex_family(np.random.default_rng(len(dims)), dims)
    ours, theirs = twin_generators(bit_generator, 41, buffered_half)
    assert_same_rotation(subs, 0.3, ours, theirs)


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
def test_many_families_match_the_reference(bit_generator):
    meta = np.random.default_rng(5)
    for case in range(25):
        dims = tuple(int(m) for m in meta.integers(1, 9, int(meta.integers(1, 12))))
        subs = complex_family(meta, dims, count=int(meta.integers(1, 4)))
        ours, theirs = twin_generators(bit_generator, case, buffered_half=bool(case % 2))
        assert_same_rotation(subs, float(meta.uniform(0.0, 3.0)), ours, theirs)


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
def test_wide_fiber_draws_match_the_reference(bit_generator):
    # Givens assembly at m >= 1000 is slow, so the draws are compared alone.
    dims = np.array([1000, 1, 4096, 2, 1500, 1000])
    ours, theirs = twin_generators(bit_generator, 8)
    got = perturbation._draws(dims, 0.7, ours)
    want = rotation_draws(dims.tolist(), 0.7, theirs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert same_state(ours.bit_generator.state, theirs.bit_generator.state)


# chi2.ppf(0.999, df) for df = m(m-1) - 1, taken from scipy.stats
CHI2_999 = {2: 10.828, 3: 20.515, 4: 31.264, 5: 43.820}


@pytest.mark.parametrize("m", sorted(CHI2_999))
def test_planes_are_uniform_over_ordered_pairs(m):
    count = 600 * m * (m - 1)
    dims = np.full(count, m)
    dims[::7] = 1  # fibers that draw nothing are skipped, not counted
    planes, _ = perturbation._draws(dims, 0.5, np.random.default_rng(2024 + m))
    planes = planes[dims >= 2]
    i, j = planes.T
    assert np.all((0 <= i) & (i < m) & (0 <= j) & (j < m) & (i != j))
    observed = np.bincount(i * m + j, minlength=m * m).reshape(m, m)
    assert not observed.diagonal().any()
    observed = observed[~np.eye(m, dtype=bool)]
    expected = planes.shape[0] / (m * (m - 1))
    assert np.sum((observed - expected) ** 2 / expected) < CHI2_999[m]


@pytest.mark.parametrize("max_angle", [0.0, 1e-300, 0.05, np.pi, 1e300])
def test_angles_lie_in_the_closed_range(max_angle):
    dims = np.array([1, 2, 3, 4] * 500)
    _, thetas = perturbation._draws(dims, max_angle, np.random.default_rng(17))
    assert np.all(thetas[dims == 1] == 0.0)
    angles = thetas[dims >= 2]
    assert np.all((0.0 <= angles) & (angles <= max_angle))
    if max_angle > 0:
        assert np.unique(angles).size == angles.size


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
def test_quaternion_family_draws_nothing(bit_generator):
    subs = random_quaternion_frame(np.random.default_rng(3)).submodules
    ours, theirs = twin_generators(bit_generator, 9, buffered_half=True)
    assert_same_rotation(subs, 0.3, ours, theirs)


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
def test_zero_angle_still_draws(bit_generator):
    subs = complex_family(np.random.default_rng(4), (3, 2, 5))
    ours, theirs = twin_generators(bit_generator, 10)
    before = ours.bit_generator.state
    assert_same_rotation(subs, 0.0, ours, theirs)
    assert not same_state(before, ours.bit_generator.state)
    for sub, moved in zip(subs, randomly_rotated(subs, 0.0, np.random.default_rng(1))):
        for m in sub.blocks:
            assert np.array_equal(sub.blocks[m], moved.blocks[m])


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
def test_negative_zero_angle_is_zero(bit_generator):
    # uniform(0, -0.0) raises "high - low < 0"; -0.0 is taken as +0.0.
    subs = complex_family(np.random.default_rng(4), (3, 2, 5))
    ours, theirs = twin_generators(bit_generator, 10)
    assert_same_rotation(subs, -0.0, ours, theirs, ref_angle=0.0)


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
def test_empty_family(bit_generator):
    ours, theirs = twin_generators(bit_generator, 11)
    assert randomly_rotated([], 0.3, ours) == []
    assert same_state(ours.bit_generator.state, theirs.bit_generator.state)


def test_block_family_over_mixed_dims():
    shape = ModuleShape(COMPLEX, (1, 2, 3, 1, 4))
    subs = [block_submodule(shape, {2, 3}), block_submodule(shape, {1, 5})]
    ours, theirs = twin_generators(np.random.PCG64, 12)
    assert_same_rotation(subs, 1.2, ours, theirs)


def test_rotation_logs_nothing(caplog):
    subs = complex_family(np.random.default_rng(8), (3, 2))
    with caplog.at_level(logging.DEBUG, logger="cstar_fusion"):
        randomly_rotated(subs, 0.3, np.random.Generator(np.random.MT19937(15)))
    assert caplog.records == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 10**400])
@pytest.mark.parametrize("family", ["complex", "quaternion"])
def test_max_angle_checked_before_any_draw(bad, family):
    if family == "complex":
        subs = complex_family(np.random.default_rng(9), (3, 2))
    else:
        subs = random_quaternion_frame(np.random.default_rng(9)).submodules
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError, match="max_angle must be finite and nonnegative"):
        randomly_rotated(subs, bad, rng)
    assert same_state(rng.bit_generator.state, np.random.default_rng(16).bit_generator.state)


@pytest.mark.parametrize("internal", ["random_raw", "bit_generator", "has_uint32"])
def test_library_reads_no_generator_internals(internal):
    # The stream is defined by public Generator calls alone; raw words and
    # the 32-bit buffer are numpy implementation details.
    for path in sorted(SRC.rglob("*.py")):
        assert internal not in path.read_text(encoding="utf-8"), path.name
