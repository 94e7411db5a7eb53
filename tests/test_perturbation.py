"""Tests for projection distances, angles, ecarts and perturbation verdicts."""

import numpy as np
import pytest

from cstar_fusion import (
    COMPLEX,
    LengthMismatch,
    ModuleShape,
    ModuleVector,
    NotAFrame,
    ShapeMismatch,
    Submodule,
    WeightSequence,
    WeightedFrame,
    alg_norm,
    angle,
    angle_criteria,
    assemble_block_frame,
    ball_membership,
    block_submodule,
    complement,
    ecart,
    inner_product,
    perturbation_check,
    proj_distance,
    project,
    randomly_rotated,
    span_submodule,
    validate_projection,
)
from helpers import random_complex_frame, random_span_submodule


def line(shape, direction):
    return span_submodule(shape, [[np.asarray(direction, dtype=complex)]])


def rotated_line(shape, theta):
    return line(shape, [np.cos(theta), np.sin(theta)])


@pytest.fixture
def plane():
    return ModuleShape(COMPLEX, (2,))


@pytest.fixture
def three_subspace_frame(plane):
    subs = [line(plane, [1, 0]), line(plane, [0, 1]), line(plane, [1, 1])]
    return WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1], [1], [1]]))


def rotate_all(frame, theta):
    """Rotate every submodule of a single 2d-fiber frame by theta."""
    giv = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return [
        Submodule(frame.shape, [giv @ np.asarray(sub.fibers[0]) @ giv.T])
        for sub in frame.submodules
    ]


class TestDistance:
    def test_equal_submodules(self, plane):
        sub = line(plane, [1, 0])
        assert proj_distance(sub, sub) == 0.0

    def test_rotated_line(self, plane):
        # P_U - P_V has eigenvalues +/- sin(theta)
        got = proj_distance(line(plane, [1, 0]), rotated_line(plane, np.pi / 6))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_coordinate_counterexample(self):
        shape = ModuleShape(COMPLEX, (8,))
        eye = np.eye(8)
        inner_u = span_submodule(shape, [[eye[3], eye[7]]])
        outer_v = span_submodule(shape, [[eye[1], eye[3], eye[5], eye[7]]])
        assert proj_distance(inner_u, outer_v) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(61)
        shape = ModuleShape(COMPLEX, (4, 3))
        for _ in range(100):
            u = random_span_submodule(rng, shape)
            v = random_span_submodule(rng, shape)
            assert 0.0 <= proj_distance(u, v) <= 1.0

    def test_distance_axioms(self):
        rng = np.random.default_rng(62)
        shape = ModuleShape(COMPLEX, (3, 2))
        for _ in range(30):
            u, v, w = (random_span_submodule(rng, shape) for _ in range(3))
            assert proj_distance(u, v) == pytest.approx(proj_distance(v, u), abs=1e-12)
            assert proj_distance(u, w) <= proj_distance(u, v) + proj_distance(v, w) + 1e-12

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(63)
        shape = ModuleShape(COMPLEX, (3,))
        u = random_span_submodule(rng, shape)
        v = Submodule(shape, [np.asarray(u.fibers[0]).copy()])
        assert proj_distance(u, v) <= 1e-10
        w = random_span_submodule(rng, shape, ranks=[1])
        if proj_distance(u, w) <= 1e-10:
            np.testing.assert_allclose(u.fibers[0], w.fibers[0], atol=1e-9)

    def test_shape_mismatch(self, plane):
        other = block_submodule(ModuleShape(COMPLEX, (1, 1)), {1})
        with pytest.raises(ShapeMismatch):
            proj_distance(line(plane, [1, 0]), other)


class TestAngle:
    def test_equal_submodules(self, plane):
        sub = line(plane, [1, 1])
        assert angle(sub, sub) == 0.0

    def test_orthogonal_lines(self, plane):
        assert angle(line(plane, [1, 0]), line(plane, [0, 1])) == np.pi / 2

    def test_rotation_angle(self, plane):
        got = angle(line(plane, [1, 0]), rotated_line(plane, np.pi / 6))
        assert got == pytest.approx(np.pi / 6, abs=1e-12)

    def test_right_angle_without_orthogonality(self):
        shape = ModuleShape(COMPLEX, (8,))
        eye = np.eye(8)
        inner_u = span_submodule(shape, [[eye[3], eye[7]]])
        outer_v = span_submodule(shape, [[eye[1], eye[3], eye[5], eye[7]]])
        assert angle(inner_u, outer_v) == np.pi / 2
        # yet e4 lies in both, so the submodules are not orthogonal
        witness = ModuleVector(shape, [eye[3]])
        in_u = project(inner_u, witness)
        in_v = project(outer_v, witness)
        assert alg_norm(inner_product(in_u, in_v)) > 0.9

    def test_orthogonal_random_spans(self):
        rng = np.random.default_rng(64)
        shape = ModuleShape(COMPLEX, (5,))
        for _ in range(20):
            u = random_span_submodule(rng, shape, ranks=[2])
            rest = complement(u)
            # a nonzero subspace of the complement is orthogonal to u
            basis = np.linalg.eigh(np.asarray(rest.fibers[0]))[1][:, -1]
            v = span_submodule(shape, [[basis]])
            assert angle(u, v) == np.pi / 2


class TestEcart:
    def test_zero_for_equal_sequences(self, three_subspace_frame):
        subs = three_subspace_frame.submodules
        assert ecart(subs, subs, [1, 1, 1]) == 0.0

    def test_arithmetic_example(self, plane):
        us = [line(plane, [1, 0]), line(plane, [0, 1])]
        vs = [rotated_line(plane, np.pi / 6), line(plane, [np.sin(np.pi / 6), np.cos(np.pi / 6)])]
        got = ecart(us, vs, [1, 1])
        assert got == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_weight_scaling(self, plane):
        us = [line(plane, [1, 0])]
        vs = [rotated_line(plane, 0.4)]
        base = ecart(us, vs, [1.0])
        # weights |w|^2 = 4 scale each squared term by 4
        assert ecart(us, vs, [4.0]) == pytest.approx(2 * base, rel=1e-12)

    def test_triangle_and_symmetry(self):
        rng = np.random.default_rng(65)
        shape = ModuleShape(COMPLEX, (3,))
        for _ in range(20):
            us = [random_span_submodule(rng, shape) for _ in range(3)]
            vs = [random_span_submodule(rng, shape) for _ in range(3)]
            ws = [random_span_submodule(rng, shape) for _ in range(3)]
            weights = rng.uniform(0.5, 2.0, size=3)
            assert ecart(us, vs, weights) == pytest.approx(ecart(vs, us, weights), abs=1e-12)
            assert ecart(us, ws, weights) <= (
                ecart(us, vs, weights) + ecart(vs, ws, weights) + 1e-12
            )

    def test_length_mismatch(self, plane):
        with pytest.raises(LengthMismatch):
            ecart([line(plane, [1, 0])], [], [1.0])
        with pytest.raises(ValueError):
            ecart([line(plane, [1, 0])], [line(plane, [0, 1])], [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, plane, bad):
        with pytest.raises(ValueError, match="finite"):
            ecart([line(plane, [1, 0])], [line(plane, [0, 1])], [bad])


class TestBallMembership:
    def test_rejects_nan_radius(self, three_subspace_frame):
        subs = three_subspace_frame.submodules
        with pytest.raises(ValueError, match="radius"):
            ball_membership(subs, np.nan, subs, [1, 1, 1])

    def test_center_in_every_ball(self, three_subspace_frame):
        subs = three_subspace_frame.submodules
        assert ball_membership(subs, 1e-12, subs, [1, 1, 1])

    def test_radius_zero_is_empty(self, three_subspace_frame):
        subs = three_subspace_frame.submodules
        assert not ball_membership(subs, 0.0, subs, [1, 1, 1])

    def test_rotation_inside_unit_ball(self, three_subspace_frame):
        moved = rotate_all(three_subspace_frame, 0.3)
        assert ball_membership(three_subspace_frame.submodules, 1.0, moved, [1, 1, 1])

    def test_ball_of_radius_threshold_contains_only_frames(self):
        # sampled version of the open-set property: everything inside the
        # ball of radius 1/|A^-1| around a frame's submodules is a frame
        from cstar_fusion import WeightedFrame, frame_bounds

        rng = np.random.default_rng(70)
        frame = random_complex_frame(rng, min_dim=2)
        bounds = frame_bounds(frame)
        threshold = np.sqrt(bounds.scalar_lower)
        weights = frame.weights.q_weights()
        sampled = 0
        while sampled < 50:
            moved = randomly_rotated(
                frame.submodules, float(rng.uniform(0, np.pi / 2)), rng
            )
            if not ball_membership(frame.submodules, threshold, moved, weights):
                continue
            sampled += 1
            assert frame_bounds(WeightedFrame(moved, frame.weights)).is_frame


class TestPerturbationCheck:
    def test_unmoved_candidates(self, three_subspace_frame):
        report = perturbation_check(three_subspace_frame, list(three_subspace_frame.submodules))
        assert report.ecart == 0.0
        assert report.guaranteed
        assert report.perturbed_is_frame
        assert report.perturbed_scalar_lower == pytest.approx(1.0, abs=1e-12)
        assert report.perturbed_scalar_upper == pytest.approx(2.0, abs=1e-12)

    def test_small_rotation_guaranteed(self, three_subspace_frame):
        moved = rotate_all(three_subspace_frame, 0.3)
        report = perturbation_check(three_subspace_frame, moved)
        assert report.threshold == pytest.approx(1.0, abs=1e-12)
        assert report.ecart == pytest.approx(np.sqrt(3) * np.sin(0.3), abs=1e-12)
        assert report.guaranteed
        assert report.perturbed_is_frame
        assert report.perturbed_scalar_lower >= report.predicted_scalar_lower - 1e-9
        assert report.perturbed_scalar_upper <= report.predicted_scalar_upper + 1e-9

    def test_quarter_turn_not_guaranteed(self, three_subspace_frame):
        moved = rotate_all(three_subspace_frame, np.pi / 2)
        report = perturbation_check(three_subspace_frame, moved)
        assert report.ecart == pytest.approx(np.sqrt(3), abs=1e-12)
        assert not report.guaranteed
        assert report.perturbed_is_frame is None

    def test_requires_frame(self, plane):
        broken = assemble_block_frame(COMPLEX, [[1]], [[1, 1]])
        with pytest.raises(NotAFrame):
            perturbation_check(broken, list(broken.submodules))

    def test_candidate_count_checked(self, three_subspace_frame):
        with pytest.raises(LengthMismatch):
            perturbation_check(three_subspace_frame, list(three_subspace_frame.submodules[:2]))


class TestAngleCriteria:
    def test_unmoved_candidates_satisfy_all(self, three_subspace_frame):
        result = angle_criteria(three_subspace_frame, list(three_subspace_frame.submodules), p=2.0)
        assert result.crit1 and result.crit2 and result.crit3

    def test_small_rotation_sums(self, three_subspace_frame):
        moved = rotate_all(three_subspace_frame, 0.3)
        result = angle_criteria(three_subspace_frame, moved, p=2.0)
        assert result.crit1_lhs == pytest.approx(3 * 0.3**2, abs=1e-12)
        assert result.crit1_rhs == pytest.approx(1.0, abs=1e-12)
        assert result.crit1
        # Hoelder variant at p=2: sum of theta^4 against (1/sqrt(3))^2
        assert result.crit3_lhs == pytest.approx(3 * 0.3**4, abs=1e-12)
        assert result.crit3_rhs == pytest.approx(1.0 / np.sqrt(3) ** 2, abs=1e-12)
        assert result.crit3

    def test_criteria_imply_guarantee(self, three_subspace_frame):
        rng = np.random.default_rng(66)
        for _ in range(50):
            theta = rng.uniform(0, np.pi / 2)
            moved = rotate_all(three_subspace_frame, theta)
            report = perturbation_check(three_subspace_frame, moved, p=1.5)
            for verdict in (report.criteria.crit1, report.criteria.crit2, report.criteria.crit3):
                if verdict:
                    assert report.guaranteed

    def test_p_validation(self, three_subspace_frame):
        with pytest.raises(ValueError):
            angle_criteria(three_subspace_frame, list(three_subspace_frame.submodules), p=1.0)

    def test_without_p(self, three_subspace_frame):
        result = angle_criteria(three_subspace_frame, list(three_subspace_frame.submodules))
        assert result.crit3 is None and result.crit3_lhs is None


class TestRandomRotations:
    def test_projections_stay_valid(self):
        rng = np.random.default_rng(67)
        frame = random_complex_frame(rng, min_dim=2)
        moved = randomly_rotated(frame.submodules, 0.2, rng)
        for sub in moved:
            assert validate_projection(sub, tol=1e-10)

    def test_distance_bounded_by_rotation_size(self):
        # a Givens rotation by theta moves a projection by at most ~2 theta
        rng = np.random.default_rng(68)
        frame = random_complex_frame(rng, min_dim=2)
        theta = 0.1
        moved = randomly_rotated(frame.submodules, theta, rng)
        for old, new in zip(frame.submodules, moved):
            assert proj_distance(old, new) <= 2 * theta + 1e-12

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(69)
        frame = random_complex_frame(rng)
        moved = randomly_rotated(frame.submodules, 0.0, rng)
        for old, new in zip(frame.submodules, moved):
            for of, nf in zip(old.fibers, new.fibers):
                np.testing.assert_allclose(of, nf, atol=1e-15)
