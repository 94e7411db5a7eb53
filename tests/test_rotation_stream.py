"""randomly_rotated against the per-fiber draw loop, bit for bit.

The reference below is the loop ``randomly_rotated`` ran before its draws
were decoded from raw generator words in one pass: per fiber of dimension
m >= 2, ``rng.choice(m, 2, replace=False)`` then ``rng.uniform(0,
max_angle)``.  The rotated fibers and the generator's whole state afterwards
must be equal, not close.
"""

import logging

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
from helpers import random_quaternion_frame, random_span_submodule

BUFFERED = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
ALL_GENERATORS = BUFFERED + (np.random.MT19937,)


def ref_draws(dims, max_angle, rng):
    planes = np.zeros((len(dims), 2), dtype=int)
    thetas = np.zeros(len(dims))
    for k, m in enumerate(dims):
        if m >= 2:
            planes[k] = rng.choice(m, size=2, replace=False)
            thetas[k] = rng.uniform(0.0, max_angle)
    return planes, thetas


def ref_rotated(submodules, max_angle, rng):
    moved = []
    for sub in submodules:
        shape = sub.shape
        planes, thetas = ref_draws(shape.dims, max_angle, rng)
        planes, thetas = shape.gather(planes), shape.gather(thetas)
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
def test_matches_the_loop(bit_generator, buffered_half, dims):
    subs = complex_family(np.random.default_rng(len(dims)), dims)
    ours, theirs = twin_generators(bit_generator, 41, buffered_half)
    if buffered_half and bit_generator is not np.random.MT19937:
        assert ours.bit_generator.state["has_uint32"] == 1
    assert_same_rotation(subs, 0.3, ours, theirs)


@pytest.mark.parametrize("bit_generator", ALL_GENERATORS, ids=lambda g: g.__name__)
def test_many_families_match_the_loop(bit_generator):
    meta = np.random.default_rng(5)
    for case in range(25):
        dims = tuple(int(m) for m in meta.integers(1, 9, int(meta.integers(1, 12))))
        subs = complex_family(meta, dims, count=int(meta.integers(1, 4)))
        ours, theirs = twin_generators(bit_generator, case, buffered_half=bool(case % 2))
        assert_same_rotation(subs, float(meta.uniform(0.0, 3.0)), ours, theirs)


@pytest.mark.parametrize("bit_generator", BUFFERED, ids=lambda g: g.__name__)
@pytest.mark.parametrize("buffered_half", [False, True], ids=["empty-buffer", "buffered-half"])
def test_wide_fiber_draws_match_the_loop(bit_generator, buffered_half):
    # Givens assembly at m >= 1000 is slow, so the draws are compared alone.
    dims = np.array([1000, 1, 4096, 2, 1500, 1000])
    ours, theirs = twin_generators(bit_generator, 8, buffered_half)
    got = perturbation._vector_draws(dims, 0.7, ours)
    want = ref_draws(dims.tolist(), 0.7, theirs)
    assert got is not None
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert same_state(ours.bit_generator.state, theirs.bit_generator.state)


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


class TestRejection:
    def test_lemire_rejects_below_the_threshold(self):
        # r = 3 (Floyd's first draw at m = 4): the threshold is 2**32 mod 3 = 1.
        words = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint64)
        values, rejected = perturbation._lemire(words, np.uint64(3))
        assert rejected.tolist() == [True, False, False, False]
        assert values.tolist() == [0, 0, 1, 2]
        # r = 2 (the shuffle) never rejects, and its value is bit 31.
        values, rejected = perturbation._lemire(words, np.uint64(2))
        assert not rejected.any()
        assert values.tolist() == [0, 0, 1, 1]

    def test_lemire_matches_numpy_values(self):
        # numpy's bounded draws in [0, r) from a fresh generator's 32-bit words.
        for r in (2, 3, 4, 7, 1000, 4097):
            rng = np.random.default_rng(r)
            raw = np.random.default_rng(r).bit_generator.random_raw(50)
            halves = np.column_stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)]).ravel()
            values, rejected = perturbation._lemire(halves, np.uint64(r))
            assert not rejected.any()
            assert values.tolist() == rng.integers(0, r, 100).tolist()

    @pytest.mark.parametrize("bit_generator", BUFFERED, ids=lambda g: g.__name__)
    def test_rejected_draw_takes_the_loop(self, bit_generator, monkeypatch, caplog):
        decode = perturbation._lemire

        def rejecting(u, r):
            return decode(u, r)[0], np.ones(u.shape, dtype=bool)

        monkeypatch.setattr(perturbation, "_lemire", rejecting)
        subs = complex_family(np.random.default_rng(6), (3, 1, 4, 2))
        ours, theirs = twin_generators(bit_generator, 13, buffered_half=True)
        with caplog.at_level(logging.DEBUG, logger="cstar_fusion.perturbation"):
            assert_same_rotation(subs, 0.3, ours, theirs)
        assert "rejected" in caplog.text


def test_generator_without_buffer_logs_the_loop(caplog):
    subs = complex_family(np.random.default_rng(7), (3, 2))
    ours, theirs = twin_generators(np.random.MT19937, 14)
    with caplog.at_level(logging.DEBUG, logger="cstar_fusion.perturbation"):
        assert_same_rotation(subs, 0.3, ours, theirs)
    assert "no 32-bit buffer" in caplog.text


def test_vectorised_pass_logs_nothing(caplog):
    subs = complex_family(np.random.default_rng(8), (3, 2))
    with caplog.at_level(logging.DEBUG, logger="cstar_fusion.perturbation"):
        randomly_rotated(subs, 0.3, np.random.default_rng(15))
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
