"""Tests for orthogonality-preserving maps and frame transport."""

import numpy as np
import pytest

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    InvalidMap,
    InvalidWeight,
    ModuleShape,
    ModuleVector,
    NotAFrame,
    NotFinite,
    OrthoMap,
    ShapeMismatch,
    alg_norm,
    assemble_block_frame,
    block_submodule,
    frame_bounds,
    inner_product,
    left_action,
    span_submodule,
    sqrt_positive,
    tightness,
    transport_frame,
    validate_projection,
    WeightSequence,
    WeightedFrame,
)
from cstar_fusion.morphism import identity_rotations
from cstar_fusion.scenario import build_scenario
from helpers import (
    pairs,
    random_algebra,
    random_complex_frame,
    random_ortho_map,
    random_quaternion_frame,
    random_vector,
    scenario_doc,
)


@pytest.fixture
def plane():
    return ModuleShape(COMPLEX, (2,))


@pytest.fixture
def three_subspace_frame(plane):
    subs = [
        span_submodule(plane, [[np.array([1.0, 0.0])]]),
        span_submodule(plane, [[np.array([0.0, 1.0])]]),
        span_submodule(plane, [[np.array([1.0, 1.0])]]),
    ]
    return WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1], [1], [1]]))


class TestApplyMap:
    def test_identity(self, plane):
        x = ModuleVector(plane, [[1, 2j]])
        got = OrthoMap.identity(plane).apply(x)
        np.testing.assert_allclose(got.fibers[0], x.fibers[0])

    def test_pure_scaling(self, plane):
        mapping = OrthoMap(plane, [2.0], [np.eye(2, dtype=complex)])
        got = mapping.apply(ModuleVector(plane, [[1, 0]]))
        np.testing.assert_allclose(got.fibers[0], [2, 0])

    @pytest.mark.parametrize("kind,dims", [(COMPLEX, (2, 3)), (QUATERNION, (1, 1))])
    def test_inner_products_scale_by_nu(self, kind, dims):
        rng = np.random.default_rng(51)
        shape = ModuleShape(kind, dims)
        for _ in range(25):
            mapping = random_ortho_map(rng, shape)
            nu = mapping.nu()
            x, y = random_vector(rng, shape), random_vector(rng, shape)
            moved = inner_product(mapping.apply(x), mapping.apply(y))
            scaled = nu * inner_product(x, y)
            assert alg_norm(moved - scaled) <= 1e-12 * max(1.0, alg_norm(scaled))

    @pytest.mark.parametrize("kind,dims", [(COMPLEX, (2, 2)), (QUATERNION, (1, 1))])
    def test_module_linear(self, kind, dims):
        rng = np.random.default_rng(52)
        shape = ModuleShape(kind, dims)
        mapping = random_ortho_map(rng, shape)
        a = random_algebra(rng, kind, shape.fiber_count)
        x = random_vector(rng, shape)
        left = mapping.apply(left_action(a, x))
        right = left_action(a, mapping.apply(x))
        for lf, rf in zip(left.fibers, right.fibers):
            np.testing.assert_allclose(lf, rf, atol=1e-12)

    def test_inverse_roundtrip(self, plane):
        rng = np.random.default_rng(53)
        mapping = random_ortho_map(rng, plane)
        x = random_vector(rng, plane)
        back = mapping.inverse().apply(mapping.apply(x))
        np.testing.assert_allclose(back.fibers[0], x.fibers[0], atol=1e-12)

    def test_quaternion_inverse_roundtrip(self):
        rng = np.random.default_rng(54)
        shape = ModuleShape(QUATERNION, (1, 1, 1))
        mapping = random_ortho_map(rng, shape)
        x = random_vector(rng, shape)
        back = mapping.inverse().apply(mapping.apply(x))
        np.testing.assert_allclose(back.blocks[1], x.blocks[1], atol=1e-12)
        product = mapping.inverse().nu() * mapping.nu()
        np.testing.assert_allclose(product.real_parts(), 1.0, rtol=1e-15)

    def test_shape_mismatch(self, plane):
        mapping = OrthoMap.identity(plane)
        x = ModuleVector(ModuleShape(COMPLEX, (3,)), [[1, 0, 0]])
        with pytest.raises(ShapeMismatch):
            mapping.apply(x)

    def test_rejects_bad_rotation(self, plane):
        with pytest.raises(ValueError):
            OrthoMap(plane, [1.0], [np.array([[1, 1], [0, 1]], dtype=complex)])
        with pytest.raises(ValueError):
            OrthoMap(plane, [-1.0], [np.eye(2, dtype=complex)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_scale(self, plane, bad):
        with pytest.raises(ValueError):
            OrthoMap(plane, [bad], [np.eye(2, dtype=complex)])

    def test_rejects_nan_rotation(self, plane):
        with pytest.raises(ValueError):
            OrthoMap(plane, [1.0], [np.full((2, 2), np.nan)])


def _eigvalsh_calls(monkeypatch) -> list:
    """Record every call of np.linalg.eigvalsh."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def _spectral_norm_calls(monkeypatch) -> list:
    """Record every call of np.linalg.norm with order 2."""
    calls = []
    norm = np.linalg.norm

    def spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


class TestUnitaryGate:
    def test_a_unitary_map_takes_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(88)
        shape = ModuleShape(COMPLEX, (1, 3, 4, 3, 2))
        calls, norms = _eigvalsh_calls(monkeypatch), _spectral_norm_calls(monkeypatch)
        mapping = random_ortho_map(rng, shape)
        mapping.inverse()
        OrthoMap.identity(shape)
        assert calls == [] and norms == []

    def test_past_the_frobenius_gate_the_spectral_test_decides(self, monkeypatch, plane):
        # U^H U - I = diag(2d + d^2, 0): Frobenius and spectral norm ~8e-11,
        # above UNITARY_TOL / 2 but within UNITARY_TOL.
        calls = _spectral_norm_calls(monkeypatch)
        OrthoMap(plane, [1.0], [np.diag([1.0 + 4e-11, 1.0])])
        assert calls == [(1, 2, 2)]
        with pytest.raises(ValueError, match=r"not unitary \(defect 1\.20e-10\)$"):
            OrthoMap(plane, [1.0], [np.diag([1.0 + 6e-11, 1.0])])

    def test_a_complex_rotation_whose_gram_overflows_has_defect_inf(self, plane):
        # U^H U overflowed with numpy's warnings, and the defect read nan.
        with pytest.raises(ValueError, match=r"not unitary \(defect inf\)$") as caught:
            OrthoMap(plane, [1.0], [np.diag([1e200, 1.0])])
        assert (caught.value.key, caught.value.fiber) == ("rotations", 0)

    def test_a_huge_quaternion_rotation_states_its_finite_defect(self):
        # Its squared length overflows; the length itself is 1e200.
        shape = ModuleShape(QUATERNION, (1,))
        with pytest.raises(ValueError, match=r"not unitary \(defect 1\.00e\+200\)$"):
            OrthoMap(shape, [1.0], {1: [[0.0, 1e200, 0.0, 0.0]]})


class TestNu:
    def test_identity_gives_unit(self, plane):
        nu = OrthoMap.identity(plane).nu()
        np.testing.assert_allclose(nu.real_parts(), 1.0)

    def test_squared_scales(self):
        shape = ModuleShape(COMPLEX, (1, 1))
        mapping = OrthoMap(
            shape, [2.0, 3.0], [np.eye(1, dtype=complex), np.eye(1, dtype=complex)]
        )
        nu = mapping.nu()
        np.testing.assert_allclose(nu.real_parts(), [4, 9])
        np.testing.assert_allclose(sqrt_positive(nu).real_parts(), [2, 3])


class TestTransport:
    def test_identity_preserves_frame(self, three_subspace_frame):
        moved = transport_frame(OrthoMap.identity(three_subspace_frame.shape), three_subspace_frame)
        for new, old in zip(moved.submodules, three_subspace_frame.submodules):
            np.testing.assert_allclose(new.fibers[0], old.fibers[0], atol=1e-14)
        np.testing.assert_allclose(moved.weights.matrix, three_subspace_frame.weights.matrix)

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    @pytest.mark.parametrize("scale", [1e250, 1e100])
    def test_a_scale_that_overflows_is_refused(self, kind, scale):
        # 1e350 overflows the weight itself, 1e200 the frame operator.
        frame = assemble_block_frame(kind, [[1]], [[1e100]])
        mapping = OrthoMap(frame.shape, [scale], identity_rotations(frame.shape))
        with pytest.raises(InvalidWeight):
            transport_frame(mapping, frame)

    def test_scaled_parseval_becomes_tight(self, plane):
        parseval = WeightedFrame(
            [block_submodule(plane, {1})], WeightSequence.from_matrix(COMPLEX, [[1]])
        )
        mapping = OrthoMap(plane, [2.0], [np.eye(2, dtype=complex)])
        moved = transport_frame(mapping, parseval)
        result = tightness(moved)
        assert result.tight and not result.parseval
        np.testing.assert_allclose(result.constant.real_parts(), 2.0, atol=1e-12)

    def test_rotation_preserves_spectrum(self, plane, three_subspace_frame):
        theta = np.pi / 4
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
        )
        moved = transport_frame(OrthoMap(plane, [1.0], [rot]), three_subspace_frame)
        bounds = frame_bounds(moved)
        assert bounds.scalar_lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.scalar_upper == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("quaternion", [False, True])
    def test_bounds_scale_fiberwise(self, quaternion):
        rng = np.random.default_rng(54)
        for _ in range(10):
            frame = (
                random_quaternion_frame(rng) if quaternion else random_complex_frame(rng)
            )
            mapping = random_ortho_map(rng, frame.shape)
            moved = transport_frame(mapping, frame)
            old = frame_bounds(frame)
            new = frame_bounds(moved)
            assert new.is_frame
            np.testing.assert_allclose(
                new.lower.real_parts(),
                mapping.scales * old.lower.real_parts(),
                atol=1e-10,
            )
            np.testing.assert_allclose(
                new.upper.real_parts(),
                mapping.scales * old.upper.real_parts(),
                atol=1e-10,
            )
            for sub in moved.submodules:
                assert validate_projection(sub, tol=1e-12)

    def test_inverse_transport_restores_projections(self):
        rng = np.random.default_rng(55)
        frame = random_complex_frame(rng)
        mapping = random_ortho_map(rng, frame.shape)
        back = transport_frame(mapping.inverse(), transport_frame(mapping, frame))
        for new, old in zip(back.submodules, frame.submodules):
            for nf, of in zip(new.fibers, old.fibers):
                np.testing.assert_allclose(nf, of, atol=1e-10)
        np.testing.assert_allclose(back.weights.matrix, frame.weights.matrix, atol=1e-10)

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_weights_equal_the_algebra_products(self, kind):
        rng = np.random.default_rng(11)
        frame = random_complex_frame(rng) if kind == COMPLEX else random_quaternion_frame(rng)
        mapping = random_ortho_map(rng, frame.shape)
        scale = AlgebraElement.from_real(mapping.scales, kind)
        products = [(scale * w).fibers.tolist() for w in frame.weights]
        moved = transport_frame(mapping, frame)
        assert [w.fibers.tolist() for w in moved.weights] == products

    def test_quaternion_selectors_come_back_unchanged(self):
        # A unit quaternion acts on a quaternion line from the right and
        # leaves each of its two submodules, 0 and the line, where it is.
        rng = np.random.default_rng(56)
        for _ in range(10):
            frame = random_quaternion_frame(rng)
            moved = transport_frame(random_ortho_map(rng, frame.shape), frame)
            for new, old in zip(moved.submodules, frame.submodules):
                assert new.blocks.keys() == {1}
                assert new.blocks[1].tobytes() == old.blocks[1].tobytes()

    def test_requires_frame(self):
        broken = assemble_block_frame(COMPLEX, [[1]], [[1, 1]])
        with pytest.raises(NotAFrame):
            transport_frame(OrthoMap.identity(broken.shape), broken)


def read_map(mapping: OrthoMap) -> OrthoMap:
    """The map as a scenario's ``maps`` entry describes it, built back."""
    complex_ = mapping.shape.kind == COMPLEX
    rotations = [pairs(r) if complex_ else r.tolist() for r in mapping.rotations]
    spec = {"scales": mapping.scales.tolist(), "rotations": rotations}
    return build_scenario(scenario_doc(mapping.shape, maps={"m": spec})).maps["m"]


class TestSerialization:
    @pytest.mark.parametrize("kind,dims", [(COMPLEX, (2, 1)), (QUATERNION, (1, 1))])
    def test_payload_fields(self, kind, dims):
        rng = np.random.default_rng(56)
        read = read_map(random_ortho_map(rng, ModuleShape(kind, dims)))
        assert read.shape.kind == kind
        assert len(read.scales) == len(read.rotations) == len(dims)
        assert np.all(read.scales > 0)

    @pytest.mark.parametrize("kind,dims", [(COMPLEX, (2, 3)), (QUATERNION, (1, 1))])
    def test_payload_roundtrip(self, kind, dims):
        rng = np.random.default_rng(57)
        mapping = random_ortho_map(rng, ModuleShape(kind, dims))
        back = read_map(mapping)
        np.testing.assert_array_equal(back.scales, mapping.scales)
        for bf, mf in zip(back.rotations, mapping.rotations):
            np.testing.assert_array_equal(bf, mf)


class TestOverflowIsRefused:
    """A map whose image or inverse lies past the float range is refused,
    with no numpy warning on the way: the suite makes a RuntimeWarning an
    error."""

    SHAPE = ModuleShape(COMPLEX, (2, 2))
    I = np.eye(2)

    def test_apply(self):
        x = ModuleVector(self.SHAPE, [[1e200, 0], [1, 0]])
        with pytest.raises(NotFinite):
            OrthoMap(self.SHAPE, [1e300, 1], [self.I, self.I]).apply(x)

    def test_inverse_of_a_subnormal_scale(self):
        with pytest.raises(InvalidMap, match="scales"):
            OrthoMap(self.SHAPE, [1e-310, 1], [self.I, self.I]).inverse()
