"""Tests for frame verification, operators, reconstruction and multipliers."""

import numpy as np
import pytest

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    IndexOutOfRange,
    InvalidWeight,
    LengthMismatch,
    ModuleSequence,
    ModuleShape,
    ModuleVector,
    NotAFrame,
    ShapeMismatch,
    WeightSequence,
    WeightedFrame,
    alg_norm,
    assemble_block_frame,
    block_multiplier_check,
    block_submodule,
    cone_add,
    cone_scale,
    frame_bounds,
    frame_operator,
    inner_product,
    left_action,
    module_norm,
    project,
    order_leq,
    reconstruct,
    seq_inner,
    span_submodule,
    synthesis,
    synthesis_adjoint,
    tightness,
)
from helpers import (
    random_complex_frame,
    random_quaternion_frame,
    random_span_submodule,
    random_unitary,
    random_vector,
)


@pytest.fixture
def three_subspace_frame():
    """Three lines in a single 2-dimensional fiber, unit weights."""
    shape = ModuleShape(COMPLEX, (2,))
    subs = [
        span_submodule(shape, [[np.array([1.0, 0.0])]]),
        span_submodule(shape, [[np.array([0.0, 1.0])]]),
        span_submodule(shape, [[np.array([1.0, 1.0])]]),
    ]
    return WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1], [1], [1]]))


@pytest.fixture
def parseval_frame():
    shape = ModuleShape(COMPLEX, (2,))
    full = block_submodule(shape, {1})
    return WeightedFrame([full], WeightSequence.from_matrix(COMPLEX, [[1]]))


class TestWeightSequence:
    def test_rejects_non_central(self):
        spun = AlgebraElement.quaternions([[1, 0.5, 0, 0]])
        with pytest.raises(InvalidWeight):
            WeightSequence.from_elements([spun])

    def test_rejects_non_strictly_positive(self):
        with pytest.raises(InvalidWeight):
            WeightSequence.from_elements([AlgebraElement.complexes([1, 0])])
        with pytest.raises(InvalidWeight):
            WeightSequence.from_elements([AlgebraElement.complexes([1, -2])])

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, kind, bad):
        with pytest.raises(InvalidWeight):
            WeightSequence.from_matrix(kind, [[bad]])
        with pytest.raises(InvalidWeight):
            WeightSequence.from_matrix(kind, [[1.0, bad]])

    def test_element_weight_is_stored_once_as_reals(self):
        ws = WeightSequence.from_elements([AlgebraElement.complexes([1 + 5e-13j])])
        assert [f for f in WeightSequence.__dataclass_fields__] == ["kind", "matrix"]
        assert not ws.matrix.flags.writeable
        assert ws[0].fibers.tolist() == [1 + 0j]
        shape = ModuleShape(COMPLEX, (2,))
        frame = WeightedFrame([block_submodule(shape, {1})], ws)
        x = ModuleVector(shape, [[1, 0]])
        back = synthesis_adjoint(frame, synthesis(frame, x))
        assert back.fibers[0].tolist() == frame_operator(frame).apply(x).fibers[0].tolist()
        assert np.all(back.fibers[0].imag == 0)

    def test_element_path_shares_the_weight_rule(self):
        for kind in (COMPLEX, QUATERNION):
            w = AlgebraElement.from_real([1.0, 2.0], kind)
            ws = WeightSequence.from_elements([w, w * 3.0])
            assert ws.matrix.tolist() == [[1.0, 2.0], [3.0, 6.0]]
            assert [v.fibers.tolist() for v in ws] == [w.fibers.tolist(), (w * 3.0).fibers.tolist()]
        with pytest.raises(InvalidWeight, match="self-adjoint"):
            WeightSequence.from_elements([AlgebraElement.complexes([1 + 1e-11j])])
        with pytest.raises(InvalidWeight, match="strictly positive"):
            WeightSequence.from_elements([AlgebraElement.complexes([1, 1e-13])])
        with pytest.raises(ShapeMismatch):
            WeightSequence.from_elements(
                [AlgebraElement.complexes([1, 1]), AlgebraElement.from_real([1, 1], QUATERNION)]
            )

    def test_rule_floor_is_relative_to_the_largest_entry(self):
        WeightSequence(COMPLEX, [[2e-12, 1.0]])
        WeightSequence(QUATERNION, [[1e200, 1e189]])
        with pytest.raises(InvalidWeight, match="strictly positive"):
            WeightSequence(COMPLEX, [[1e-12, 1.0]])
        with pytest.raises(InvalidWeight, match="strictly positive"):
            WeightSequence(COMPLEX, [[1e200, 1e187]])

    def test_frame_takes_only_a_weight_sequence(self):
        shape = ModuleShape(COMPLEX, (2,))
        with pytest.raises(TypeError):
            WeightedFrame([block_submodule(shape, {1})], [AlgebraElement.complexes([1])])

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_q_weights_are_the_squared_algebra_norms(self, kind):
        ws = WeightSequence(kind, np.random.default_rng(3).uniform(1e-6, 1e6, (50, 7)))
        assert ws.q_weights() == [alg_norm(w) ** 2 for w in ws]

    def test_matrix_roundtrip(self):
        ws = WeightSequence.from_matrix(COMPLEX, [[1, 2], [3, 4]])
        np.testing.assert_allclose(ws.matrix, [[1, 2], [3, 4]])
        assert ws.q_weights() == [4.0, 16.0]


class TestFrameOperator:
    def test_three_subspace_matrix(self, three_subspace_frame):
        # direct dense assembly: diag(1,0) + diag(0,1) + the diagonal projector
        np.testing.assert_allclose(
            three_subspace_frame.operator_fibers.fibers[0],
            [[1.5, 0.5], [0.5, 1.5]],
            atol=1e-15,
        )

    def test_single_full_is_identity(self, parseval_frame):
        np.testing.assert_allclose(parseval_frame.operator_fibers.fibers[0], np.eye(2))

    def test_block_fiber_sums(self):
        frame = assemble_block_frame(COMPLEX, [[1, 2], [2, 3]], [[1, 1, 1], [1, 2, 1]])
        got = [float(np.real(s[0, 0])) for s in frame.operator_fibers.fibers]
        np.testing.assert_allclose(got, [1, 5, 1])

    def test_apply_matches_weighted_projection_sum(self):
        rng = np.random.default_rng(41)
        for frame in (random_complex_frame(rng), random_quaternion_frame(rng)):
            x = random_vector(rng, frame.shape)
            fast = frame_operator(frame).apply(x)
            direct = None
            for sub, w in zip(frame.submodules, frame.weights):
                term = left_action(w * w, project(sub, x))
                direct = term if direct is None else direct + term
            for ff, df in zip(fast.fibers, direct.fibers):
                np.testing.assert_allclose(ff, df, atol=1e-12)

    def test_length_mismatch(self):
        shape = ModuleShape(COMPLEX, (2,))
        subs = [block_submodule(shape, {1})]
        with pytest.raises(LengthMismatch):
            WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1], [1]]))


class TestFrameBounds:
    def test_three_subspace_bounds(self, three_subspace_frame):
        bounds = frame_bounds(three_subspace_frame)
        # eigenvalues of [[1.5,.5],[.5,1.5]] solve (1.5-t)^2 = .25: t in {1, 2}
        assert bounds.is_frame
        assert bounds.scalar_lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.scalar_upper == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(bounds.lower.real_parts(), [1.0], atol=1e-12)
        np.testing.assert_allclose(bounds.upper.real_parts(), [np.sqrt(2)], atol=1e-12)

    def test_parseval_bounds(self, parseval_frame):
        bounds = frame_bounds(parseval_frame)
        assert bounds.is_frame
        np.testing.assert_allclose(bounds.lower.real_parts(), 1.0)
        np.testing.assert_allclose(bounds.upper.real_parts(), 1.0)

    def test_uncovered_fiber_is_not_a_frame(self):
        frame = assemble_block_frame(COMPLEX, [[1, 2], [2]], [[1, 1, 1], [1, 1, 1]])
        assert not frame_bounds(frame).is_frame

    def test_frame_inequality_with_optimal_bounds(self):
        rng = np.random.default_rng(42)
        for frame in (random_complex_frame(rng), random_quaternion_frame(rng)):
            bounds = frame_bounds(frame)
            for _ in range(20):
                x = random_vector(rng, frame.shape)
                energy = None
                for sub, w in zip(frame.submodules, frame.weights):
                    piece = left_action(w, project(sub, x))
                    term = inner_product(piece, piece)
                    energy = term if energy is None else energy + term
                low = left_action(bounds.lower, x)
                high = left_action(bounds.upper, x)
                tol = 1e-10 * max(1.0, alg_norm(energy))
                assert order_leq(inner_product(low, low), energy, tol)
                assert order_leq(energy, inner_product(high, high), tol)


class TestSynthesis:
    def test_full_submodule_scaling(self):
        shape = ModuleShape(COMPLEX, (2,))
        full = block_submodule(shape, {1})
        frame = WeightedFrame([full], WeightSequence.from_matrix(COMPLEX, [[2]]))
        x = ModuleVector(shape, [[1, 1j]])
        seq = synthesis(frame, x)
        np.testing.assert_allclose(seq[0].fibers[0], [2, 2j])

    def test_zero_vector(self, three_subspace_frame):
        seq = synthesis(three_subspace_frame, ModuleVector.zeros(three_subspace_frame.shape))
        for entry in seq:
            np.testing.assert_allclose(np.concatenate(entry.fibers), 0)

    def test_selector_entry(self):
        frame = assemble_block_frame(COMPLEX, [[1], [2]], [[3, 3], [1, 1]])
        x = ModuleVector(frame.shape, [[1], [1]])
        seq = synthesis(frame, x)
        np.testing.assert_allclose(np.concatenate(seq[0].fibers), [3, 0])

    def test_norm_bounded_by_upper(self):
        rng = np.random.default_rng(43)
        for frame in (random_complex_frame(rng), random_quaternion_frame(rng)):
            bounds = frame_bounds(frame)
            for _ in range(10):
                x = random_vector(rng, frame.shape)
                assert synthesis(frame, x).norm() <= alg_norm(
                    bounds.upper
                ) * module_norm(x) * (1 + 1e-10)


class TestAdjoint:
    def test_adjoint_of_synthesis_is_operator(self, three_subspace_frame):
        rng = np.random.default_rng(44)
        x = random_vector(rng, three_subspace_frame.shape)
        via_sequences = synthesis_adjoint(three_subspace_frame, synthesis(three_subspace_frame, x))
        via_operator = frame_operator(three_subspace_frame).apply(x)
        for a, b in zip(via_sequences.fibers, via_operator.fibers):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_sequence(self, three_subspace_frame):
        zeros = ModuleSequence(
            [ModuleVector.zeros(three_subspace_frame.shape) for _ in range(3)]
        )
        got = synthesis_adjoint(three_subspace_frame, zeros)
        np.testing.assert_allclose(np.concatenate(got.fibers), 0)

    def test_adjointness_identity(self):
        rng = np.random.default_rng(45)
        for frame in (random_complex_frame(rng), random_quaternion_frame(rng)):
            for _ in range(20):
                x = random_vector(rng, frame.shape)
                ys = ModuleSequence([random_vector(rng, frame.shape) for _ in range(len(frame))])
                forward = seq_inner(synthesis(frame, x), ys)
                backward = inner_product(x, synthesis_adjoint(frame, ys))
                gap = alg_norm(forward - backward)
                assert gap <= 1e-12 * (1 + module_norm(x) * ys.norm())

    def test_length_mismatch(self, three_subspace_frame):
        short = ModuleSequence([ModuleVector.zeros(three_subspace_frame.shape)])
        with pytest.raises(LengthMismatch):
            synthesis_adjoint(three_subspace_frame, short)


class TestReconstruction:
    def test_parseval_identity(self, parseval_frame):
        rng = np.random.default_rng(46)
        x = random_vector(rng, parseval_frame.shape)
        result = reconstruct(parseval_frame, x)
        assert result.rel_error <= 1e-15
        for rf, xf in zip(result.vector.fibers, x.fibers):
            np.testing.assert_allclose(rf, xf, atol=1e-15)

    def test_three_subspace_solution(self, three_subspace_frame):
        # S y = e1 with S = [[1.5,.5],[.5,1.5]] gives y = (0.75, -0.25)
        x = ModuleVector(three_subspace_frame.shape, [[1, 0]])
        result = reconstruct(three_subspace_frame, x)
        assert result.rel_error <= 1e-12
        np.testing.assert_allclose(result.vector.fibers[0], [1, 0], atol=1e-12)
        solved = np.linalg.solve(
            np.asarray(three_subspace_frame.operator_fibers.fibers[0]), np.array([1, 0])
        )
        np.testing.assert_allclose(solved, [0.75, -0.25], atol=1e-14)

    def test_not_a_frame(self):
        broken = assemble_block_frame(COMPLEX, [[1]], [[1, 1]])
        x = ModuleVector(broken.shape, [[1], [1]])
        with pytest.raises(NotAFrame):
            reconstruct(broken, x)

    @pytest.mark.parametrize("k", [664, -664])
    def test_rel_error_is_measured_at_extreme_scales(self, three_subspace_frame, k):
        # At 2^664 ~ 1e200 the norms overflowed to inf, at 2^-664 they
        # underflowed to 0, and both reported rel_error 0.0.  Scaling by a
        # power of two is exact, so the error is the unscaled one.
        shape = three_subspace_frame.shape
        x = np.array([0.1 + 0.2j, -0.7])
        want = reconstruct(three_subspace_frame, ModuleVector(shape, [x]))
        scaled = np.ldexp(x.view(float), k).view(complex)
        got = reconstruct(three_subspace_frame, ModuleVector(shape, [scaled]))
        assert want.rel_error > 0.0
        assert got.rel_error == want.rel_error

    def test_rel_error_is_measured_when_the_norm_overflows(self, three_subspace_frame):
        # |x| = sqrt(2) * 1.7e308 exceeds the float range: the norm was inf,
        # with a numpy overflow warning, and rel_error read 0.0.  Tier-1
        # turns a RuntimeWarning into an error, so this also checks that
        # none is emitted.
        shape = three_subspace_frame.shape
        x = np.array([1.7e308, 1.7e308])
        got = reconstruct(three_subspace_frame, ModuleVector(shape, [x]))
        want = reconstruct(three_subspace_frame, ModuleVector(shape, [np.ldexp(x, -600)]))
        assert np.isfinite(got.rel_error)
        assert want.rel_error > 0.0
        assert got.rel_error == pytest.approx(want.rel_error, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e-318, 1e-310])
    def test_subnormal_input_keeps_full_precision(self, three_subspace_frame, scale):
        # The solve and the projections ran on subnormal numbers: rel_error
        # read 4.7e-06 at 1e-318 and 4.7e-14 at 1e-310.
        x = np.array([1.0, 0.3]) * scale
        result = reconstruct(three_subspace_frame, ModuleVector(three_subspace_frame.shape, [x]))
        assert result.rel_error <= 1e-15

    def test_zero_vector_has_zero_error(self, three_subspace_frame):
        result = reconstruct(three_subspace_frame, ModuleVector.zeros(three_subspace_frame.shape))
        assert result.rel_error == 0.0

    def test_wide_fiber_reconstruction(self):
        # one fiber of dimension 80 goes through the same batched solve
        rng = np.random.default_rng(47)
        m = 80
        shape = ModuleShape(COMPLEX, (m,))
        subs = [block_submodule(shape, {1})] + [
            random_span_submodule(rng, shape, ranks=[m // 2]) for _ in range(3)
        ]
        frame = WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, np.ones((4, 1))))
        x = random_vector(rng, shape)
        assert reconstruct(frame, x).rel_error <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_wide_fiber(self, seed):
        # 100 rank-1 spans of a unitary's columns, weights 1 .. 1e-3: the one
        # fiber of dimension 100 has condition number 1e6 and still verifies
        rng = np.random.default_rng(seed)
        m = 100
        shape = ModuleShape(COMPLEX, (m,))
        basis = random_unitary(rng, m)
        subs = [span_submodule(shape, [[basis[:, n]]]) for n in range(m)]
        weights = WeightSequence.from_matrix(COMPLEX, np.logspace(0, -3, m)[:, None])
        frame = WeightedFrame(subs, weights)
        assert frame_bounds(frame).is_frame
        assert reconstruct(frame, random_vector(rng, shape)).rel_error <= 1e-8

    def test_randomized_quaternion_reconstruction(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            frame = random_quaternion_frame(rng)
            x = random_vector(rng, frame.shape)
            assert reconstruct(frame, x).rel_error <= 1e-12


class TestTightness:
    def test_parseval(self, parseval_frame):
        result = tightness(parseval_frame)
        assert result.tight and result.parseval
        np.testing.assert_allclose(result.constant.real_parts(), 1.0)

    def test_block_constant(self):
        frame = assemble_block_frame(COMPLEX, [[1, 2], [2, 3]], [[1, 1, 1], [1, 2, 1]])
        result = tightness(frame)
        assert result.tight and not result.parseval
        np.testing.assert_allclose(result.constant.real_parts(), [1, np.sqrt(5), 1], atol=1e-12)

    def test_not_tight(self, three_subspace_frame):
        result = tightness(three_subspace_frame)
        assert not result.tight and result.constant is None

    def test_requires_frame(self):
        broken = assemble_block_frame(COMPLEX, [[1]], [[1, 1]])
        with pytest.raises(NotAFrame):
            tightness(broken)


class TestMultiplier:
    def test_unit_weights_constant(self):
        result = block_multiplier_check([[1, 2], [2, 3]], [[1, 1, 1], [1, 1, 1]])
        assert result.member
        np.testing.assert_allclose(
            result.tight_constant.real_parts(), [1, np.sqrt(2), 1], atol=1e-15
        )
        assert result.note == "finite-truncation: auto-satisfied"

    def test_uncovered_fiber(self):
        result = block_multiplier_check([[1, 2], [2]], [[1, 1, 1], [1, 1, 1]])
        assert not result.member
        assert result.tight_constant is None

    def test_single_fiber(self):
        result = block_multiplier_check([[1]], [[2.0]])
        np.testing.assert_allclose(result.tight_constant.real_parts(), [2.0])

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_agrees_with_assembled_frame(self, kind):
        rng = np.random.default_rng(49)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            count = int(rng.integers(1, 4))
            index_sets = [
                sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) + 1)
                for _ in range(count)
            ]
            weights = rng.uniform(0.2, 2.0, size=(count, n))
            result = block_multiplier_check(index_sets, weights, kind)
            frame = assemble_block_frame(kind, index_sets, weights)
            bounds = frame_bounds(frame)
            assert result.member == bounds.is_frame
            if result.member:
                np.testing.assert_allclose(
                    result.tight_constant.real_parts(),
                    bounds.lower.real_parts(),
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    result.tight_constant.real_parts(),
                    bounds.upper.real_parts(),
                    atol=1e-12,
                )

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InvalidWeight):
            block_multiplier_check([[1]], [[0.0]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange, match="fiber index 5 outside 1..3"):
            block_multiplier_check([[1, 2, 5]], [[1, 1, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(InvalidWeight, match="weights must be finite"):
            block_multiplier_check([[1, 2]], [[1.0, bad]])

    def test_accepts_exactly_what_the_assembled_frame_accepts(self):
        for weights in ([[1e-300, 1.0]], [[0.0, 1.0]], [[1.0, np.nan]]):
            with pytest.raises(InvalidWeight):
                assemble_block_frame(COMPLEX, [[1, 2]], weights)
            with pytest.raises(InvalidWeight):
                block_multiplier_check([[1, 2]], weights)
        with pytest.raises(LengthMismatch):
            block_multiplier_check([[1, 2]], [[1.0, 1.0], [1.0, 1.0]])


class TestCone:
    def test_parseval_doubling(self, parseval_frame):
        doubled = cone_add(parseval_frame, WeightSequence.from_matrix(COMPLEX, [[1]]))
        bounds = frame_bounds(doubled)
        np.testing.assert_allclose(bounds.lower.real_parts(), 2.0, atol=1e-12)
        np.testing.assert_allclose(bounds.upper.real_parts(), 2.0, atol=1e-12)

    def test_block_sum_reassembles(self):
        index_sets = [[1, 2], [2, 3]]
        alpha = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
        beta = np.array([[2.0, 0.5, 1.0], [1.0, 1.0, 3.0]])
        frame = assemble_block_frame(COMPLEX, index_sets, alpha)
        summed = cone_add(frame, WeightSequence.from_matrix(COMPLEX, beta))
        fromscratch = assemble_block_frame(COMPLEX, index_sets, alpha + beta)
        np.testing.assert_allclose(
            [float(np.real(s[0, 0])) for s in summed.operator_fibers.fibers],
            [float(np.real(s[0, 0])) for s in fromscratch.operator_fibers.fibers],
            atol=1e-12,
        )
        assert frame_bounds(summed).is_frame

    def test_positive_rescaling_halves_bounds(self, three_subspace_frame):
        scaled = cone_scale(three_subspace_frame, 0.5)
        original = frame_bounds(three_subspace_frame)
        bounds = frame_bounds(scaled)
        np.testing.assert_allclose(
            bounds.lower.real_parts(), 0.5 * original.lower.real_parts(), atol=1e-12
        )
        np.testing.assert_allclose(
            bounds.upper.real_parts(), 0.5 * original.upper.real_parts(), atol=1e-12
        )

    def test_rejects_non_frames(self, parseval_frame):
        broken = assemble_block_frame(COMPLEX, [[1]], [[1, 1]])
        with pytest.raises(NotAFrame):
            cone_add(broken, WeightSequence.from_matrix(COMPLEX, [[1, 1]]))
        with pytest.raises(NotAFrame):
            cone_scale(broken, 2.0)
        with pytest.raises(ValueError):
            cone_scale(parseval_frame, -1.0)


class TestShapeChecks:
    def test_synthesis_shape_mismatch(self, three_subspace_frame):
        x = ModuleVector(ModuleShape(COMPLEX, (3,)), [[1, 0, 0]])
        with pytest.raises(ShapeMismatch):
            synthesis(three_subspace_frame, x)

    def test_weights_must_match_kind(self):
        shape = ModuleShape(QUATERNION, (1, 1))
        subs = [block_submodule(shape, {1, 2})]
        with pytest.raises(ShapeMismatch):
            WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1, 1]]))
