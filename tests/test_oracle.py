"""Tests for the dense brute-force reference path."""

import dataclasses

import numpy as np
import pytest

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    DenseOperator,
    ModuleShape,
    NotHermitian,
    WeightSequence,
    WeightedFrame,
    assemble_block_frame,
    block_submodule,
    brute_force_frame_check,
    eigen_bounds,
    flatten_frame_operator,
    flatten_vector,
    frame_bounds,
    module_norm,
    quaternion_block,
    random_unit_vector,
    span_submodule,
    star,
)
from helpers import (
    random_complex_frame,
    random_quaternion_frame,
    random_span_submodule,
    random_vector,
)


def ref_flatten_frame_operator(frame) -> np.ndarray:
    """The per-submodule dense formulation: each submodule becomes its own
    (total, total) matrix, scaled and summed, then symmetrized."""
    kind = frame.shape.kind
    dims = [m if kind == COMPLEX else 2 for m in frame.shape.dims]
    total = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    out = np.zeros((total, total), dtype=complex)
    wmatrix = frame.weights.matrix
    for n, sub in enumerate(frame.submodules):
        dense = np.zeros((total, total), dtype=complex)
        scale = np.zeros(total)
        for k, p in enumerate(sub.fibers):
            lo, hi = offsets[k], offsets[k + 1]
            if kind == COMPLEX:
                dense[lo:hi, lo:hi] = np.asarray(p)
            else:
                dense[lo:hi, lo:hi] = float(p[0, 0]) * np.eye(2)
            scale[lo:hi] = wmatrix[n, k] ** 2
        out += scale[:, None] * dense
    return (out + out.conj().T) / 2.0


@pytest.fixture
def three_subspace_frame():
    shape = ModuleShape(COMPLEX, (2,))
    subs = [
        span_submodule(shape, [[np.array([1.0, 0.0])]]),
        span_submodule(shape, [[np.array([0.0, 1.0])]]),
        span_submodule(shape, [[np.array([1.0, 1.0])]]),
    ]
    return WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1], [1], [1]]))


class TestFlatten:
    def test_parseval_identity(self):
        shape = ModuleShape(COMPLEX, (2,))
        frame = WeightedFrame(
            [block_submodule(shape, {1})], WeightSequence.from_matrix(COMPLEX, [[1]])
        )
        np.testing.assert_allclose(flatten_frame_operator(frame).matrix, np.eye(2))

    def test_three_subspace_matrix(self, three_subspace_frame):
        np.testing.assert_allclose(
            flatten_frame_operator(three_subspace_frame).matrix,
            [[1.5, 0.5], [0.5, 1.5]],
            atol=1e-15,
        )

    def test_block_diagonal(self):
        frame = assemble_block_frame(COMPLEX, [[1, 2], [2, 3]], [[1, 1, 1], [1, 2, 1]])
        np.testing.assert_allclose(
            flatten_frame_operator(frame).matrix, np.diag([1.0, 5.0, 1.0])
        )

    def test_quaternion_blocks_duplicate_scalars(self):
        frame = assemble_block_frame(QUATERNION, [[1, 2], [2, 3]], [[1, 1, 1], [1, 2, 1]])
        np.testing.assert_allclose(
            flatten_frame_operator(frame).matrix, np.diag([1.0, 1.0, 5.0, 5.0, 1.0, 1.0])
        )

    def test_bit_identical_to_dense_formulation(self):
        rng = np.random.default_rng(78)
        shape = ModuleShape(COMPLEX, (3, 1, 4, 3, 2, 1, 4, 4))
        subs = [random_span_submodule(rng, shape) for _ in range(5)]
        weights = WeightSequence.from_matrix(COMPLEX, rng.uniform(0.2, 2.0, (5, 8)))
        frames = [WeightedFrame(subs, weights)]
        frames += [random_complex_frame(rng) for _ in range(10)]
        frames += [random_quaternion_frame(rng) for _ in range(10)]
        assert {f.shape.kind for f in frames} == {COMPLEX, QUATERNION}
        for frame in frames:
            got = flatten_frame_operator(frame).matrix
            assert np.array_equal(got, ref_flatten_frame_operator(frame))

    def test_vector_flattening_preserves_fiber_norms(self):
        rng = np.random.default_rng(71)
        for kind, dims in ((COMPLEX, (3, 2)), (QUATERNION, (1, 1))):
            shape = ModuleShape(kind, dims)
            x = random_vector(rng, shape)
            flat = flatten_vector(x)
            pos = 0
            for k, f in enumerate(x.fibers):
                width = shape.dims[k] if kind == COMPLEX else 2
                chunk = flat[pos : pos + width]
                assert np.linalg.norm(chunk) == pytest.approx(np.linalg.norm(f), rel=1e-12)
                pos += width


class TestEigenBounds:
    def test_identity(self):
        got = eigen_bounds(DenseOperator(np.eye(3)))
        assert got == {"lambda_min": 1.0, "lambda_max": 1.0}

    def test_two_by_two(self):
        got = eigen_bounds(DenseOperator(np.array([[1.5, 0.5], [0.5, 1.5]])))
        assert got["lambda_min"] == pytest.approx(1.0, abs=1e-12)
        assert got["lambda_max"] == pytest.approx(2.0, abs=1e-12)

    def test_diagonal(self):
        got = eigen_bounds(DenseOperator(np.diag([1.0, 5.0, 1.0])))
        assert (got["lambda_min"], got["lambda_max"]) == (1.0, 5.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigen_bounds(DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex)))

    @staticmethod
    def _skewed(skew: float) -> DenseOperator:
        # 1e6 I plus a part whose m - m^H has spectral norm `skew` and
        # Frobenius norm sqrt(2) * skew.
        return DenseOperator(1e6 * np.eye(2) + np.array([[0, skew], [0, 0]]))

    def test_relative_threshold_past_the_frobenius_gate(self):
        # tol = 1e-10 < 1e-6 < tol * ||m||_2 ~ 1e-4: Hermitian within tolerance.
        got = eigen_bounds(self._skewed(1e-6))
        assert got["lambda_min"] == pytest.approx(1e6 - 5e-7, abs=1e-9)
        assert got["lambda_max"] == pytest.approx(1e6 + 5e-7, abs=1e-9)

    def test_rejection_states_the_spectral_defect(self):
        # 1e-3 > tol * ||m||_2; the Frobenius defect would read 1.41e-03.
        with pytest.raises(NotHermitian, match=r"by 1\.00e-03$"):
            eigen_bounds(self._skewed(1e-3))

    def test_hermitian_input_takes_no_spectral_norm(self, monkeypatch):
        norm = np.linalg.norm
        orders = []

        def spy(x, ord=None, *args, **kwargs):
            orders.append(ord)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        frame = random_complex_frame(np.random.default_rng(79))
        eigen_bounds(flatten_frame_operator(frame))
        assert orders and 2 not in orders


class TestAgreement:
    def test_extremes_match_fast_path(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            frame = random_complex_frame(rng)
            bounds = frame_bounds(frame)
            eig = eigen_bounds(flatten_frame_operator(frame))
            assert eig["lambda_min"] == pytest.approx(bounds.scalar_lower, abs=1e-10)
            assert eig["lambda_max"] == pytest.approx(bounds.scalar_upper, abs=1e-10)

    def test_quaternion_extremes_match(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            frame = random_quaternion_frame(rng)
            bounds = frame_bounds(frame)
            eig = eigen_bounds(flatten_frame_operator(frame))
            assert eig["lambda_min"] == pytest.approx(bounds.scalar_lower, abs=1e-10)
            assert eig["lambda_max"] == pytest.approx(bounds.scalar_upper, abs=1e-10)


class TestBruteForce:
    def test_parseval_passes(self):
        shape = ModuleShape(COMPLEX, (2,))
        frame = WeightedFrame(
            [block_submodule(shape, {1})], WeightSequence.from_matrix(COMPLEX, [[1]])
        )
        assert brute_force_frame_check(frame, 50, rng=np.random.default_rng(1))

    def test_three_subspace_sampling(self, three_subspace_frame):
        assert brute_force_frame_check(
            three_subspace_frame, 1000, rng=np.random.default_rng(2)
        )

    def test_corrupted_lower_bound_fails(self, three_subspace_frame):
        bounds = frame_bounds(three_subspace_frame)
        corrupted = dataclasses.replace(bounds, scalar_lower=2 * bounds.scalar_lower)
        assert not brute_force_frame_check(
            three_subspace_frame, 200, bounds=corrupted, rng=np.random.default_rng(3)
        )

    def test_quaternion_sampling(self):
        frame = random_quaternion_frame(np.random.default_rng(74))
        assert brute_force_frame_check(frame, 100, rng=np.random.default_rng(4))


class TestQuaternionExpansion:
    def test_block_values(self):
        block = quaternion_block([1, 2, 3, 4])
        np.testing.assert_allclose(block, [[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])

    def test_norm_fidelity(self):
        rng = np.random.default_rng(75)
        for _ in range(50):
            q = rng.standard_normal(4)
            assert np.linalg.norm(quaternion_block(q), 2) == pytest.approx(
                np.linalg.norm(q), rel=1e-12
            )

    def test_conjugation_is_adjoint(self):
        q = AlgebraElement.quaternions([[0.3, -1.2, 0.7, 2.0]])
        np.testing.assert_allclose(
            quaternion_block(star(q).fibers[0]), quaternion_block(q.fibers[0]).conj().T, atol=1e-15
        )

    def test_multiplicative(self):
        rng = np.random.default_rng(76)
        a = AlgebraElement.quaternions([rng.standard_normal(4)])
        b = AlgebraElement.quaternions([rng.standard_normal(4)])
        np.testing.assert_allclose(
            quaternion_block((a * b).fibers[0]),
            quaternion_block(a.fibers[0]) @ quaternion_block(b.fibers[0]),
            atol=1e-12,
        )


class TestRandomUnitVector:
    @pytest.mark.parametrize("kind,dims", [(COMPLEX, (2, 3)), (QUATERNION, (1, 1))])
    def test_unit_norm(self, kind, dims):
        rng = np.random.default_rng(77)
        x = random_unit_vector(ModuleShape(kind, dims), rng)
        assert module_norm(x) == pytest.approx(1.0, rel=1e-12)
