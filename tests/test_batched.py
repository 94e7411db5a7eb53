"""Batched fiber kernels against per-fiber loop references.

Each reference below is the fiber-by-fiber loop the library used before
per-fiber data was stored as one block per fiber dimension.  The batched
kernels do the same arithmetic with a different summation order and LAPACK
batching, so their results must agree within 1e-13 * max(1, |S_k|), a bound
fixed from float64 eps (2.2e-16) before the comparison was run.  Projection
distances are the exception: eigendecomposing only the fibers that can hold
the maximum changes no arithmetic, so they must equal the reference exactly.
Module shapes mix fiber dimensions so that grouping and scattering are
exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_fusion import perturbation
from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    ModuleShape,
    ModuleVector,
    NotFinite,
    OrthoMap,
    Submodule,
    WeightSequence,
    WeightedFrame,
    complement,
    frame_bounds,
    inner_product,
    left_action,
    perturbation_check,
    proj_distance,
    project,
    randomly_rotated,
    reconstruct,
    span_submodule,
    synthesis,
    synthesis_adjoint,
    tightness,
    transport_frame,
    validate_projection,
)
from helpers import (
    random_algebra,
    random_ortho_map,
    random_quaternion_frame,
    random_span_submodule,
    random_unitary,
    random_vector,
    rotation_draws,
)

TOL = 1e-13
MIXED_DIMS = (3, 1, 4, 3, 2, 1, 4, 4)


# -- per-fiber loop references ------------------------------------------------


def ref_span_projection(vectors, m):
    """Modified Gram-Schmidt on one fiber, dropping remainders at most 1e-10
    times the largest input norm."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    drop = 1e-10 * max((float(np.linalg.norm(v)) for v in vecs), default=0.0)
    basis = []
    for u in vecs:
        for _ in range(2):
            for q in basis:
                u = u - np.vdot(q, u) * q
        norm = float(np.linalg.norm(u))
        if norm > drop and norm > 0.0:
            basis.append(u / norm)
    proj = np.zeros((m, m), dtype=complex)
    for q in basis:
        proj += np.outer(q, np.conj(q))
    return proj


def ref_operator(frame):
    fibers = []
    for k in range(frame.shape.fiber_count):
        acc = np.zeros_like(frame.submodules[0].fibers[k], dtype=complex)
        for n, sub in enumerate(frame.submodules):
            acc += frame.weights.matrix[n, k] ** 2 * sub.fibers[k]
        fibers.append((acc + acc.conj().T) / 2.0)
    return fibers


def ref_reconstruct(frame, x):
    ops = ref_operator(frame)
    out = []
    for k, (s, f) in enumerate(zip(ops, x.fibers)):
        mid = np.linalg.solve(s, f)
        out.append(sum(frame.weights.matrix[n, k] ** 2 * (sub.fibers[k] @ mid)
                       for n, sub in enumerate(frame.submodules)))
    return out


def ref_proj_distance(first, second):
    """Every fiber's eigenvalues, no gate; snapped to 1 within 1e-13."""
    worst = 0.0
    for p, q in zip(first.fibers, second.fibers):
        diff = p - q
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)))))
    return 1.0 if worst >= 1.0 - 1e-13 else worst


def ref_rotated(subs, max_angle, rng):
    """Each submodule's fibers, rotated fiber by fiber with the family's
    draws from the documented two-call stream."""
    dims = [m for sub in subs for m in sub.shape.dims]
    planes, thetas = rotation_draws(dims, max_angle, rng)
    draws = iter(zip(planes, thetas))
    moved = []
    for sub in subs:
        fibers = []
        for m, p in zip(sub.shape.dims, sub.fibers):
            (i, j), theta = next(draws)
            if m < 2:
                fibers.append(p)
                continue
            giv = np.eye(m)
            giv[i, i] = giv[j, j] = np.cos(theta)
            giv[i, j] = -np.sin(theta)
            giv[j, i] = np.sin(theta)
            rotated = giv @ p @ giv.T
            fibers.append((rotated + rotated.conj().T) / 2.0)
        moved.append(fibers)
    return moved


def assert_fibers_close(got, want, scale=1.0):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.asarray(g).shape == np.asarray(w).shape
        np.testing.assert_allclose(g, w, rtol=0, atol=TOL * max(1.0, scale))


def mixed_frame(rng, dims=MIXED_DIMS, count=6):
    shape = ModuleShape(COMPLEX, dims)
    while True:
        subs = [random_span_submodule(rng, shape) for _ in range(count)]
        weights = WeightSequence.from_matrix(COMPLEX, rng.uniform(0.5, 2.0, (count, len(dims))))
        frame = WeightedFrame(subs, weights)
        bounds = frame_bounds(frame)
        if bounds.is_frame and bounds.scalar_upper / bounds.scalar_lower <= 1e2:
            return frame


# -- storage ------------------------------------------------------------------


class TestStorage:
    def test_fibers_are_read_only_views_in_fiber_order(self):
        rng = np.random.default_rng(1)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        given = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in MIXED_DIMS]
        x = ModuleVector(shape, given)
        assert sorted(x.blocks) == sorted(set(MIXED_DIMS))
        for k, (view, want) in enumerate(zip(x.fibers, given)):
            np.testing.assert_array_equal(view, want)
            assert not view.flags.writeable
            assert np.shares_memory(view, x.blocks[MIXED_DIMS[k]])

    def test_stacked_and_per_fiber_constructors_agree(self):
        rng = np.random.default_rng(2)
        shape = ModuleShape(COMPLEX, (3,) * 5)
        mats = np.stack([random_unitary(rng, 3) for _ in range(5)])
        stacked = OrthoMap(shape, np.ones(5), mats)
        listed = OrthoMap(shape, np.ones(5), list(mats))
        np.testing.assert_array_equal(stacked.blocks[3], listed.blocks[3])
        np.testing.assert_array_equal(Submodule(shape, mats).blocks[3], mats)

    def test_blocks_are_copies(self):
        data = np.zeros((2, 2))
        x = ModuleVector(ModuleShape(COMPLEX, (2, 2)), data)
        data[0, 0] = 5.0
        assert x.fibers[0][0] == 0.0

    def test_non_unitary_fiber_is_named(self):
        rng = np.random.default_rng(3)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        rotations = [random_unitary(rng, m) for m in MIXED_DIMS]
        rotations[4] = rotations[4] * 1.01
        with pytest.raises(ValueError, match="fiber 4 rotation"):
            OrthoMap(shape, np.ones(len(MIXED_DIMS)), rotations)


# -- kernels ------------------------------------------------------------------


class TestSpan:
    def test_ragged_mixed_spans_match_reference(self):
        rng = np.random.default_rng(10)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        for _ in range(20):
            sets = []
            for m in MIXED_DIMS:
                count = int(rng.integers(0, m + 2))
                vecs = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(count)]
                if vecs and rng.random() < 0.5:
                    vecs.append(vecs[0] * 3.0)  # dependent: dropped
                if rng.random() < 0.3:
                    vecs.insert(0, np.zeros(m))  # zero: dropped
                sets.append(vecs)
            sub = span_submodule(shape, sets)
            want = [ref_span_projection(v, m) for v, m in zip(sets, MIXED_DIMS)]
            assert_fibers_close(sub.fibers, want)

    @pytest.mark.parametrize("offset, rank", [(1e-11, 1), (1e-9, 2)])
    def test_drop_rule_is_relative_to_largest_input(self, offset, rank):
        # remainder `offset` against a drop threshold of 1e-10 * |e1|; a second
        # fiber with a longer spanning set pads this one with zero vectors
        shape = ModuleShape(COMPLEX, (2, 2))
        e1, e2 = np.eye(2)
        sets = [[e1, e1 + offset * e2], [e1, e2, e1 + e2]]
        sub = span_submodule(shape, sets)
        assert np.trace(sub.fibers[0]).real == pytest.approx(rank)
        assert_fibers_close(sub.fibers, [ref_span_projection(v, 2) for v in sets])

    def test_stacked_spans_match_reference(self):
        rng = np.random.default_rng(11)
        spans = rng.standard_normal((7, 2, 4)) + 1j * rng.standard_normal((7, 2, 4))
        sub = span_submodule(ModuleShape(COMPLEX, (4,) * 7), spans)
        assert_fibers_close(sub.fibers, [ref_span_projection(v, 4) for v in spans])


class TestFramePipeline:
    def test_operator_and_extremes_match_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            frame = mixed_frame(rng)
            ref = ref_operator(frame)
            for k, (got, want) in enumerate(zip(frame.operator_fibers.fibers, ref)):
                scale = np.linalg.norm(want, 2)
                np.testing.assert_allclose(got, want, rtol=0, atol=TOL * max(1.0, scale))
                lam = np.linalg.eigvalsh(want)
                np.testing.assert_allclose(
                    frame_bounds(frame).per_fiber[k], (lam[0], lam[-1]),
                    rtol=0, atol=TOL * max(1.0, scale),
                )

    def test_reconstruct_and_adjoint_match_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            frame = mixed_frame(rng)
            ref = ref_operator(frame)
            x = random_vector(rng, frame.shape)
            scale = max(np.linalg.norm(s, 2) for s in ref)
            got = reconstruct(frame, x).vector.fibers
            assert_fibers_close(got, ref_reconstruct(frame, x), scale)
            back = synthesis_adjoint(frame, synthesis(frame, x))
            assert_fibers_close(back.fibers, [s @ f for s, f in zip(ref, x.fibers)], scale)

    def test_quaternion_operator_matches_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            frame = random_quaternion_frame(rng)
            ref = [s.real for s in ref_operator(frame)]
            scale = max(abs(float(s[0, 0])) for s in ref)
            assert_fibers_close(frame.operator_fibers.fibers, ref, scale)

    def test_quaternion_operators_are_exact_complex_images(self):
        # Every quaternion fiber operator is the complex 2x2 image of a real:
        # p I_2 for a selector bit p, s I_2 for s = sum_n w_n^2 p_n, and the
        # bounds read s back bit for bit.
        rng = np.random.default_rng(23)
        for _ in range(20):
            frame = random_quaternion_frame(rng, max_fibers=8)
            count = frame.shape.fiber_count
            bits = []
            for sub in frame.submodules:
                block = sub.blocks[1]
                assert block.dtype == complex and block.shape == (count, 2, 2)
                p = block[:, 0, 0].real
                assert set(p.tolist()) <= {0.0, 1.0}
                np.testing.assert_array_equal(block, p[:, None, None] * np.eye(2))
                bits.append(p)
            s = np.zeros(count)
            for w, p in zip(frame.weights.matrix, bits):
                s += w**2 * p
            op = frame.operator_fibers.blocks[1]
            assert op.dtype == complex and op.shape == (count, 2, 2)
            assert np.array_equal(op, s[:, None, None] * np.eye(2))
            assert frame_bounds(frame).per_fiber == tuple((v, v) for v in s.tolist())


class TestProjections:
    def test_project_complement_and_validate(self):
        rng = np.random.default_rng(30)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        for _ in range(10):
            sub = random_span_submodule(rng, shape)
            x = random_vector(rng, shape)
            want = [p @ f for p, f in zip(sub.fibers, x.fibers)]
            assert_fibers_close(project(sub, x).fibers, want)
            assert_fibers_close(
                complement(sub).fibers, [np.eye(m) - p for m, p in zip(MIXED_DIMS, sub.fibers)]
            )
            assert validate_projection(sub)
        fibers = list(random_span_submodule(rng, shape).fibers)
        fibers[2] = np.diag([2.0, 5.0, 0.0, 0.0])
        assert not validate_projection(Submodule(shape, fibers))

    def test_module_operations_match_loops(self):
        rng = np.random.default_rng(31)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        x, y = random_vector(rng, shape), random_vector(rng, shape)
        a = random_algebra(rng, COMPLEX, len(MIXED_DIMS))
        np.testing.assert_allclose(
            inner_product(x, y).fibers,
            [np.vdot(yf, xf) for xf, yf in zip(x.fibers, y.fibers)], rtol=0, atol=TOL * 10,
        )
        want = [c * f for c, f in zip(a.fibers, x.fibers)]
        assert_fibers_close(left_action(a, x).fibers, want, 10)
        mapping = random_ortho_map(rng, shape)
        assert_fibers_close(
            mapping.apply(x).fibers,
            [c * (u @ f) for c, u, f in zip(mapping.scales, mapping.rotations, x.fibers)], 10,
        )

    def test_distances_match_reference(self):
        rng = np.random.default_rng(32)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        for _ in range(20):
            u, v = random_span_submodule(rng, shape), random_span_submodule(rng, shape)
            assert proj_distance(u, v) == ref_proj_distance(u, v)

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_rotation_keeps_the_seeded_stream(self, kind):
        rng = np.random.default_rng(33)
        dims = MIXED_DIMS if kind == COMPLEX else (1,) * 5
        shape = ModuleShape(kind, dims)
        if kind == COMPLEX:
            subs = [random_span_submodule(rng, shape) for _ in range(4)]
        else:
            subs = random_quaternion_frame(rng).submodules
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        moved = randomly_rotated(subs, 0.3, ours)
        for got, want in zip(moved, ref_rotated(subs, 0.3, theirs), strict=True):
            assert_fibers_close(got.fibers, want)
        assert ours.random() == theirs.random()

    def test_transport_matches_reference(self):
        rng = np.random.default_rng(34)
        frame = mixed_frame(rng)
        mapping = random_ortho_map(rng, frame.shape)
        moved = transport_frame(mapping, frame)
        for old, new in zip(frame.submodules, moved.submodules):
            want = []
            for u, p in zip(mapping.rotations, old.fibers):
                r = u @ p @ u.conj().T
                want.append((r + r.conj().T) / 2.0)
            assert_fibers_close(new.fibers, want)


# -- projection distances, bit for bit -----------------------------------------


def rank_one(m, theta):
    """The projection onto cos(theta) e_1 + sin(theta) e_2 in C^m."""
    v = np.zeros(m)
    v[:2] = np.cos(theta), np.sin(theta)
    return np.outer(v, v)


class TestDistanceGate:
    """``proj_distance`` eigendecomposes only the fibers that can hold the
    maximum; every answer must equal the ungated reference exactly."""

    @pytest.mark.parametrize("max_angle", [0.05, 1e-160])
    def test_rotated_pairs(self, max_angle):
        rng = np.random.default_rng(35)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        moved = 0
        for i in range(40):
            if i % 2:
                u = random_span_submodule(rng, shape)
            else:
                # A rotation by 1e-160 is lost to rounding against nonzero
                # entries, but moves the exact zeros of a 0/1 diagonal.
                u = Submodule(shape, [np.diag(rng.integers(0, 2, m)) for m in MIXED_DIMS])
            (v,) = randomly_rotated([u], max_angle, rng)
            got = proj_distance(u, v)
            assert got == ref_proj_distance(u, v) <= max_angle
            moved += got > 0.0
        # At 1e-160 the squared entries lie below the smallest subnormal,
        # and the one-dimensional fibers are zero: the common scale must
        # come from the largest entry, not the largest per-dimension
        # exponent, or no fiber passes the gate.
        assert moved >= 10

    def test_identical_and_orthogonal_pairs(self):
        rng = np.random.default_rng(36)
        shape = ModuleShape(COMPLEX, MIXED_DIMS)
        u = random_span_submodule(rng, shape)
        assert proj_distance(u, u) == ref_proj_distance(u, u) == 0.0
        assert proj_distance(u, complement(u)) == ref_proj_distance(u, complement(u)) == 1.0

    def test_quaternion_selectors(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            subs = random_quaternion_frame(rng).submodules
            for u, v in zip(subs, subs[1:] + subs[:1]):
                assert proj_distance(u, v) == ref_proj_distance(u, v)

    @pytest.mark.parametrize("dims", [(2, 4), (4, 2), (3, 3)])
    def test_near_tie_across_fibers(self, dims):
        theta = 0.3
        near = theta + 4 * np.spacing(theta)
        first = Submodule(ModuleShape(COMPLEX, dims), [rank_one(m, 0.0) for m in dims])
        second = Submodule(first.shape, [rank_one(dims[0], theta), rank_one(dims[1], near)])
        each = [
            ref_proj_distance(Submodule(ModuleShape(COMPLEX, (m,)), [p]),
                              Submodule(ModuleShape(COMPLEX, (m,)), [q]))
            for m, p, q in zip(dims, first.fibers, second.fibers)
        ]
        assert 0 < abs(each[1] - each[0]) <= 16 * np.spacing(each[0])
        assert proj_distance(first, second) == ref_proj_distance(first, second) == max(each)

    def test_fiber_below_the_floor_is_never_decomposed(self, monkeypatch):
        # Fiber 0 has a column of norm sin(0.5) ~ 0.48; fiber 1's Frobenius
        # norm is sqrt(2) sin(0.1) ~ 0.14, below that floor.
        shape = ModuleShape(COMPLEX, (2, 2, 1))
        first = Submodule(shape, [rank_one(2, 0.0), rank_one(2, 0.0), np.ones((1, 1))])
        second = Submodule(shape, [rank_one(2, 0.5), rank_one(2, 0.1), np.ones((1, 1))])
        want = ref_proj_distance(first, second)
        seen = []
        eigvalsh = perturbation.np.linalg.eigvalsh

        def spy(a):
            seen.append(np.array(a))
            return eigvalsh(a)

        monkeypatch.setattr(perturbation.np.linalg, "eigvalsh", spy)
        assert proj_distance(first, second) == want == pytest.approx(np.sin(0.5), rel=1e-15)
        (decomposed,) = seen
        d = first.fibers[0] - second.fibers[0]
        np.testing.assert_array_equal(decomposed, [(d + d.conj().T) / 2.0])
        seen.clear()
        assert proj_distance(first, first) == 0.0
        assert seen == []
        # Entries of 1e308 are no projection, and their difference overflows:
        # the distance is refused before any fiber is decomposed.
        huge = Submodule(shape, [np.full((2, 2), 1e308), rank_one(2, 0.0), np.ones((1, 1))])
        with pytest.raises(NotFinite, match="projection differences must be finite"):
            proj_distance(huge, Submodule(shape, [-f for f in huge.fibers]))
        assert seen == []

    def test_wide_fibers(self):
        # From m = 64 on numpy lays the Hermitian part of a difference out
        # transposed, and the exact scaling used to refuse that layout.
        rng = np.random.default_rng(71)
        shape = ModuleShape(COMPLEX, (3, 70, 128))
        u, v = (random_span_submodule(rng, shape) for _ in range(2))
        assert proj_distance(u, v) == ref_proj_distance(u, v)
        (w,) = randomly_rotated([u], 0.05, rng)
        assert proj_distance(u, w) == ref_proj_distance(u, w)

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=8),
        max_angle=st.sampled_from([None, 1.0, 0.05, 1e-8, 1e-160]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_ungated_rule(self, dims, max_angle, seed):
        rng = np.random.default_rng(seed)
        shape = ModuleShape(COMPLEX, tuple(dims))
        u = random_span_submodule(rng, shape)
        if max_angle is None:
            v = random_span_submodule(rng, shape)
        else:
            (v,) = randomly_rotated([u], max_angle, rng)
        assert proj_distance(u, v) == ref_proj_distance(u, v)


# -- the whole pipeline on wide fibers ------------------------------------------


def ref_span_qr(vectors):
    """The projection onto the span of linearly independent rows, from
    numpy's QR."""
    q, _ = np.linalg.qr(np.asarray(vectors).T)
    return q @ q.conj().T


@pytest.mark.parametrize("dims", [(128,) * 4, (3, 70, 128)], ids=["4x128", "3-70-128"])
def test_every_layer_on_wide_fibers(dims):
    """Each layer the bench's ``wide_fibers`` op runs, once, at its full
    size and at mixed wide dimensions.  From m = 64 on numpy lays some
    intermediate arrays out transposed, which the tiny sizes never reach."""
    rng = np.random.default_rng(72)
    shape = ModuleShape(COMPLEX, dims)
    count = 4
    ranks = [-(-m // count) for m in dims]  # the submodules together span each fiber
    spans = [
        [rng.standard_normal((r, m)) + 1j * rng.standard_normal((r, m)) for r, m in zip(ranks, dims)]
        for _ in range(count)
    ]
    subs = [span_submodule(shape, sets) for sets in spans]
    for sub, sets in zip(subs, spans):
        assert_fibers_close(sub.fibers, [ref_span_qr(v) for v in sets])

    w = rng.uniform(0.5, 2.0, (count, len(dims)))
    frame = WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, w))
    ref = ref_operator(frame)
    lam = [np.linalg.eigvalsh(s) for s in ref]
    scale = max(e[-1] for e in lam)
    assert_fibers_close(frame.operator_fibers.fibers, ref, scale)

    bounds = frame_bounds(frame)
    np.testing.assert_allclose(bounds.per_fiber, [(e[0], e[-1]) for e in lam],
                               rtol=0, atol=TOL * max(1.0, scale))
    assert bounds.is_frame
    assert not tightness(frame).tight

    x = random_vector(rng, shape)
    rec = reconstruct(frame, x)
    x_norm = max(np.linalg.norm(f) for f in x.fibers)
    assert rec.rel_error <= 1e-8
    for got, want, f in zip(rec.vector.fibers, ref_reconstruct(frame, x), x.fibers):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * x_norm)
        np.testing.assert_allclose(got, f, rtol=0, atol=1e-8 * x_norm)

    ys = synthesis(frame, x)
    for n, (y, sub) in enumerate(zip(ys, frame.submodules)):
        want = [w[n, k] * (p @ f) for k, (p, f) in enumerate(zip(sub.fibers, x.fibers))]
        assert_fibers_close(y.fibers, want, x_norm * w.max())
    back = synthesis_adjoint(frame, ys)
    assert_fibers_close(back.fibers, [s @ f for s, f in zip(ref, x.fibers)], scale * x_norm)

    mapping = random_ortho_map(rng, shape)
    assert_fibers_close(
        mapping.apply(x).fibers,
        [c * (u @ f) for c, u, f in zip(mapping.scales, mapping.rotations, x.fibers)],
        x_norm * max(mapping.scales),
    )
    moved = transport_frame(mapping, frame)
    for old, new in zip(frame.submodules, moved.submodules):
        want = []
        for u, p in zip(mapping.rotations, old.fibers):
            r = u @ p @ u.conj().T
            want.append((r + r.conj().T) / 2.0)
        assert_fibers_close(new.fibers, want)

    ours, theirs = np.random.default_rng(73), np.random.default_rng(73)
    rotated = randomly_rotated(frame.submodules, 0.05, ours)
    for got, want in zip(rotated, ref_rotated(frame.submodules, 0.05, theirs), strict=True):
        assert_fibers_close(got.fibers, want)

    report = perturbation_check(frame, rotated)
    dists = [ref_proj_distance(u, v) for u, v in zip(frame.submodules, rotated)]
    assert report.distances == tuple(dists)
    q = w.max(axis=1) ** 2
    assert report.ecart == pytest.approx(np.sqrt(np.sum(q * np.square(dists))), rel=1e-14)
    assert report.threshold == pytest.approx(np.sqrt(min(e[0] for e in lam)), rel=1e-12)
    if report.guaranteed:
        assert report.perturbed_is_frame
