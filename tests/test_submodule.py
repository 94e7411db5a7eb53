"""Tests for projection-encoded submodules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    IndexOutOfRange,
    ModuleShape,
    CstarFusionError,
    ModuleVector,
    NotFinite,
    QuaternionUnsupported,
    ShapeMismatch,
    Submodule,
    alg_norm,
    block_submodule,
    complement,
    inner_product,
    left_action,
    project,
    span_submodule,
    validate_projection,
)
from cstar_fusion.scenario import build_scenario
from helpers import pairs, random_algebra, random_span_submodule, random_vector, scenario_doc


def selector_bits(sub: Submodule) -> np.ndarray:
    """The per-fiber 0/1 entries of a quaternion submodule."""
    return np.array([f[0, 0] for f in sub.fibers])


class TestBlockSubmodules:
    def test_selector_example(self):
        shape = ModuleShape(COMPLEX, (1, 1, 1))
        sub = block_submodule(shape, {1, 2})
        np.testing.assert_allclose([f[0, 0] for f in sub.fibers], [1, 1, 0])

    def test_empty_and_full(self):
        shape = ModuleShape(QUATERNION, (1, 1, 1))
        zero = block_submodule(shape, set())
        np.testing.assert_array_equal(selector_bits(zero), 0)
        full = block_submodule(shape, {1, 2, 3})
        np.testing.assert_array_equal(selector_bits(full), 1)

    def test_index_out_of_range(self):
        shape = ModuleShape(COMPLEX, (1, 1))
        with pytest.raises(IndexOutOfRange):
            block_submodule(shape, {3})
        with pytest.raises(IndexOutOfRange):
            block_submodule(shape, {0})


class TestSpanSubmodules:
    def test_diagonal_projector(self):
        shape = ModuleShape(COMPLEX, (2,))
        sub = span_submodule(shape, [[np.array([1.0, 1.0])]])
        np.testing.assert_allclose(sub.fibers[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_empty_span_is_zero(self):
        shape = ModuleShape(COMPLEX, (2,))
        sub = span_submodule(shape, [[]])
        np.testing.assert_allclose(sub.fibers[0], 0)

    def test_full_span_is_identity(self):
        shape = ModuleShape(COMPLEX, (2,))
        sub = span_submodule(shape, [[np.array([1, 0]), np.array([0, 1])]])
        np.testing.assert_allclose(sub.fibers[0], np.eye(2), atol=1e-15)

    def test_zero_and_dependent_vectors_dropped(self):
        shape = ModuleShape(COMPLEX, (3,))
        sub = span_submodule(
            shape,
            [[np.zeros(3), np.array([1, 0, 0]), np.array([2, 0, 0]), np.array([0, 1, 0])]],
        )
        np.testing.assert_allclose(np.trace(sub.fibers[0]).real, 2.0, atol=1e-12)
        assert validate_projection(sub)

    def test_quaternion_unsupported(self):
        with pytest.raises(QuaternionUnsupported):
            span_submodule(ModuleShape(QUATERNION, (1,)), [[np.array([1.0])]])

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_extreme_scales_keep_the_span(self, scale):
        # The vector's norm used to overflow or underflow, which made the
        # drop threshold inf or 0 and dropped the vector: a rank-0 fiber.
        shape = ModuleShape(COMPLEX, (2,))
        sub = span_submodule(shape, [[[scale, 0]]])
        np.testing.assert_array_equal(sub.fibers[0], span_submodule(shape, [[[1, 0]]]).fibers[0])

    @settings(max_examples=200, deadline=None)
    @given(
        spans=arrays(np.float64, st.tuples(st.just(2), st.integers(1, 4), st.just(6)),
                     elements=st.floats(-4, 4, allow_subnormal=False)),
        data=st.data(),
    )
    def test_power_of_two_scaling_is_exact(self, spans, data):
        """span(2^k V) == span(V) bit for bit, for every k that keeps all of
        V's entries normal (V: two fibers of three complex entries each)."""
        v = spans.view(complex)
        exponents = np.frexp(spans[spans != 0])[1]
        low, high = (-1021 - exponents.min(), 1024 - exponents.max()) if exponents.size else (-5, 5)
        k = data.draw(st.integers(int(low), int(high)), label="k")
        shape = ModuleShape(COMPLEX, (3, 3))
        scaled = np.ldexp(spans, k).view(complex)
        np.testing.assert_array_equal(
            span_submodule(shape, scaled).blocks[3], span_submodule(shape, v).blocks[3]
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_vector_rejected(self, bad):
        # A NaN remainder fails the drop test `norm > drop`, so Gram-Schmidt
        # used to drop the vector silently and return a rank-0 fiber.
        shape = ModuleShape(COMPLEX, (2, 3))
        ragged = [[np.array([1.0, 0.0])], [np.array([0.0, 1.0, 0.0]), np.array([bad, 1.0, 0.0])]]
        with pytest.raises(NotFinite, match="finite"):
            span_submodule(shape, ragged)
        stacked = np.zeros((2, 1, 3), dtype=complex)
        stacked[1, 0, 2] = bad
        with pytest.raises(NotFinite):
            span_submodule(ModuleShape(COMPLEX, (3, 3)), stacked)
        assert issubclass(NotFinite, CstarFusionError) and issubclass(NotFinite, ValueError)


class TestProjectAndComplement:
    def test_selector_projection(self):
        shape = ModuleShape(COMPLEX, (1, 1))
        sub = block_submodule(shape, {1})
        x = ModuleVector(shape, [[5], [7]])
        np.testing.assert_allclose(np.concatenate(project(sub, x).fibers), [5, 0])

    def test_identity_projection(self):
        shape = ModuleShape(COMPLEX, (2, 3))
        full = block_submodule(shape, {1, 2})
        x = random_vector(np.random.default_rng(31), shape)
        got = project(full, x)
        for gf, xf in zip(got.fibers, x.fibers):
            np.testing.assert_allclose(gf, xf)

    def test_rank_one_projection_value(self):
        shape = ModuleShape(COMPLEX, (2,))
        sub = Submodule(shape, [np.array([[0.5, 0.5], [0.5, 0.5]])])
        got = project(sub, ModuleVector(shape, [[1, 0]]))
        np.testing.assert_allclose(got.fibers[0], [0.5, 0.5])

    def test_complement_examples(self):
        shape = ModuleShape(QUATERNION, (1, 1, 1))
        sub = block_submodule(shape, {1, 3})
        np.testing.assert_array_equal(selector_bits(complement(sub)), [0, 1, 0])
        cshape = ModuleShape(COMPLEX, (2,))
        diag = Submodule(cshape, [np.array([[0.5, 0.5], [0.5, 0.5]])])
        np.testing.assert_allclose(
            complement(diag).fibers[0], [[0.5, -0.5], [-0.5, 0.5]]
        )
        full = block_submodule(cshape, {1})
        np.testing.assert_allclose(complement(full).fibers[0], 0)

    def test_complement_involution(self):
        rng = np.random.default_rng(32)
        sub = random_span_submodule(rng, ModuleShape(COMPLEX, (3, 2)))
        twice = complement(complement(sub))
        for tf, sf in zip(twice.fibers, sub.fibers):
            np.testing.assert_allclose(tf, sf, atol=1e-14)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(33)
        shape = ModuleShape(COMPLEX, (3, 2))
        sub = random_span_submodule(rng, shape)
        x = random_vector(rng, shape)
        once = project(sub, x)
        twice = project(sub, once)
        for a, b in zip(once.fibers, twice.fibers):
            np.testing.assert_allclose(a, b, atol=1e-13)

    def test_decomposition_and_orthogonality(self):
        rng = np.random.default_rng(34)
        for kind, dims in ((COMPLEX, (3, 2)), (QUATERNION, (1, 1))):
            shape = ModuleShape(kind, dims)
            if kind == COMPLEX:
                sub = random_span_submodule(rng, shape)
            else:
                sub = block_submodule(shape, {1})
            x, y = random_vector(rng, shape), random_vector(rng, shape)
            recomposed = project(sub, x) + project(complement(sub), x)
            for rf, xf in zip(recomposed.fibers, x.fibers):
                np.testing.assert_allclose(rf, xf, atol=1e-12)
            cross = inner_product(project(sub, x), project(complement(sub), y))
            assert alg_norm(cross) <= 1e-12 * max(1.0, alg_norm(inner_product(x, y)))

    def test_projection_module_linear(self):
        rng = np.random.default_rng(35)
        shape = ModuleShape(COMPLEX, (2, 3))
        sub = random_span_submodule(rng, shape)
        a = random_algebra(rng, COMPLEX, 2)
        x = random_vector(rng, shape)
        left = project(sub, left_action(a, x))
        right = left_action(a, project(sub, x))
        for lf, rf in zip(left.fibers, right.fibers):
            np.testing.assert_allclose(lf, rf, atol=1e-12)

    def test_projection_commutes_with_central_quaternions(self):
        rng = np.random.default_rng(36)
        shape = ModuleShape(QUATERNION, (1, 1))
        sub = block_submodule(shape, {2})
        a = AlgebraElement.from_real(rng.uniform(0.5, 2, size=2), QUATERNION)
        x = random_vector(rng, shape)
        left = project(sub, left_action(a, x))
        right = left_action(a, project(sub, x))
        for lf, rf in zip(left.fibers, right.fibers):
            np.testing.assert_allclose(lf, rf, atol=1e-12)

    def test_project_shape_mismatch(self):
        sub = block_submodule(ModuleShape(COMPLEX, (1, 1)), {1})
        x = ModuleVector(ModuleShape(COMPLEX, (2,)), [[1, 0]])
        with pytest.raises(ShapeMismatch):
            project(sub, x)


class TestValidation:
    def test_blocks_validate(self):
        shape = ModuleShape(COMPLEX, (2, 3))
        assert validate_projection(block_submodule(shape, {2}))

    def test_non_hermitian_rejected(self):
        shape = ModuleShape(COMPLEX, (2,))
        bad = Submodule(shape, [np.array([[1, 1], [0, 0]])])
        assert not validate_projection(bad)

    def test_non_idempotent_rejected(self):
        shape = ModuleShape(COMPLEX, (1,))
        half = Submodule(shape, [np.array([[0.5]])])
        assert not validate_projection(half)

    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e200])
    def test_a_projection_whose_square_overflows_is_rejected(self, scale):
        # diag(s, 0): p @ p overflowed past s ~ 1e154, its norm was NaN, and
        # NaN > tol is false, so it passed there after numpy's warnings.
        sub = Submodule(ModuleShape(COMPLEX, (2,)), [np.diag([scale, 0.0])])
        assert not validate_projection(sub)

    def test_a_hermitian_defect_that_overflows_is_rejected(self):
        sub = Submodule(ModuleShape(COMPLEX, (2,)), [np.array([[0.0, 1e308], [-1e308, 0.0]])])
        assert not validate_projection(sub)

    def test_a_valid_projection_takes_no_spectral_norm(self, monkeypatch):
        rng = np.random.default_rng(41)
        sub = random_span_submodule(rng, ModuleShape(COMPLEX, (2, 3, 3, 4)))
        norm, orders = np.linalg.norm, []

        def spy(x, ord=None, *args, **kwargs):
            orders.append(ord)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        assert validate_projection(sub)
        assert 2 not in orders

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_projection_rejected(self, bad):
        # A NaN projection used to pass, and a frame over it reported
        # per-fiber extremes (nan, nan) without an error.
        shape = ModuleShape(COMPLEX, (2, 1))
        with pytest.raises(NotFinite, match="projection entries must be finite"):
            Submodule(shape, [np.array([[1, 0], [0, bad]]), np.eye(1)])
        with pytest.raises(NotFinite):
            Submodule(ModuleShape(QUATERNION, (1, 1)), [np.eye(2), np.diag([bad, bad])])


class TestSerialization:
    def test_selector_payload(self):
        shape = ModuleShape(QUATERNION, (1, 1))
        read = build_scenario(scenario_doc(shape, submodules={"s": {"selectors": [0, 1]}}))
        want = block_submodule(shape, {2})
        np.testing.assert_array_equal(selector_bits(read.submodules["s"]), selector_bits(want))

    def test_projection_payload(self):
        rng = np.random.default_rng(37)
        sub = random_span_submodule(rng, ModuleShape(COMPLEX, (2, 3)))
        spec = {"projection": [pairs(f) for f in sub.fibers]}
        read = build_scenario(scenario_doc(sub.shape, submodules={"p": spec})).submodules["p"]
        for bf, sf in zip(read.fibers, sub.fibers):
            np.testing.assert_array_equal(bf, sf)

    def test_span_payload(self):
        shape = ModuleShape(COMPLEX, (2,))
        spec = {"span": [[[[1, 0], [1, 0]]]]}
        sub = build_scenario(scenario_doc(shape, submodules={"s": spec})).submodules["s"]
        np.testing.assert_allclose(sub.fibers[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
