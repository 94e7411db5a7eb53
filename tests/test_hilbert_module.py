"""Tests for module vectors, the algebra-valued inner product and the action."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    ModuleSequence,
    ModuleShape,
    ModuleVector,
    NotFinite,
    QuaternionUnsupported,
    ShapeMismatch,
    alg_norm,
    inner_product,
    invert,
    left_action,
    module_norm,
    star,
)
from cstar_fusion.cli import _report_data
from cstar_fusion.hilbert_module import _spectral_defects
from cstar_fusion.scenario import build_scenario
from helpers import pairs, random_algebra, random_positive_algebra, random_vector, scenario_doc

I = [0.0, 1.0, 0.0, 0.0]
J = [0.0, 0.0, 1.0, 0.0]


def quat_vector(*rows):
    shape = ModuleShape(QUATERNION, (1,) * len(rows))
    return ModuleVector(shape, list(rows))


class TestShapes:
    def test_quaternion_dims_must_be_one(self):
        with pytest.raises(QuaternionUnsupported):
            ModuleShape(QUATERNION, (2,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ModuleShape(COMPLEX, ())
        with pytest.raises(ValueError):
            ModuleShape(COMPLEX, (0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        shape = ModuleShape(COMPLEX, (2, 1))
        with pytest.raises(NotFinite, match="finite"):
            ModuleVector(shape, [np.array([1.0, bad]), np.array([2.0])])
        with pytest.raises(NotFinite):
            ModuleVector(shape, {1: np.array([[1j * bad]]), 2: np.ones((1, 2))})
        with pytest.raises(NotFinite):
            quat_vector([1, 0, 0, 0], [0, bad, 0, 0])
        with np.errstate(over="ignore"):
            x = ModuleVector(shape, [np.array([1e308, 1e308]), np.array([1e308])])  # sum overflows
            with pytest.raises(NotFinite):
                x + x

    @pytest.mark.parametrize(
        "dim", [2.5, 3.9, True, np.bool_(True), "2"], ids=["2.5", "3.9", "True", "np.True_", "str"]
    )
    def test_dimensions_must_be_integers(self, dim):
        # 2.5 and 3.9 were truncated to 2 and 3, and True read as 1.
        with pytest.raises(ValueError, match="integers"):
            ModuleShape(COMPLEX, (2, dim))

    def test_numpy_integer_dimensions_are_taken(self):
        assert ModuleShape(COMPLEX, np.array([3, 1])).dims == (3, 1)

    def test_fiber_length_checked(self):
        shape = ModuleShape(COMPLEX, (2, 1))
        with pytest.raises(ShapeMismatch):
            ModuleVector(shape, [np.array([1.0]), np.array([2.0])])


class TestInnerProduct:
    def test_complex_example(self):
        shape = ModuleShape(COMPLEX, (1, 1))
        x = ModuleVector(shape, [[1 + 1j], [2]])
        y = ModuleVector(shape, [[1], [1j]])
        np.testing.assert_allclose(inner_product(x, y).fibers, [1 + 1j, -2j])

    def test_gram_example(self):
        shape = ModuleShape(COMPLEX, (1, 1))
        x = ModuleVector(shape, [[1], [3]])
        np.testing.assert_allclose(inner_product(x, x).fibers, [1, 9])

    def test_quaternion_example(self):
        # <i, j> = i * conj(j) = i * (-j) = -k
        got = inner_product(quat_vector(I), quat_vector(J))
        np.testing.assert_allclose(got.fibers, [[0, 0, 0, -1]])

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(21)
        for kind, dims in ((COMPLEX, (2, 3)), (QUATERNION, (1, 1, 1))):
            shape = ModuleShape(kind, dims)
            x, y = random_vector(rng, shape), random_vector(rng, shape)
            np.testing.assert_allclose(
                star(inner_product(x, y)).fibers, inner_product(y, x).fibers, atol=1e-12
            )

    def test_left_linearity(self):
        rng = np.random.default_rng(22)
        for kind, dims in ((COMPLEX, (2, 3)), (QUATERNION, (1, 1))):
            shape = ModuleShape(kind, dims)
            a = random_algebra(rng, kind, shape.fiber_count)
            x, y = random_vector(rng, shape), random_vector(rng, shape)
            np.testing.assert_allclose(
                inner_product(left_action(a, x), y).fibers,
                (a * inner_product(x, y)).fibers,
                atol=1e-12,
            )

    def test_right_semi_linearity(self):
        # <x, a y> = <x, y> a*
        rng = np.random.default_rng(23)
        for kind, dims in ((COMPLEX, (2, 3)), (QUATERNION, (1, 1))):
            shape = ModuleShape(kind, dims)
            a = random_algebra(rng, kind, shape.fiber_count)
            x, y = random_vector(rng, shape), random_vector(rng, shape)
            np.testing.assert_allclose(
                inner_product(x, left_action(a, y)).fibers,
                (inner_product(x, y) * star(a)).fibers,
                atol=1e-12,
            )

    def test_positive_definite(self):
        rng = np.random.default_rng(24)
        shape = ModuleShape(COMPLEX, (2, 2))
        x = random_vector(rng, shape)
        gram = inner_product(x, x)
        assert np.all(gram.real_parts() >= 0)
        assert np.all(gram.imag_magnitudes() <= 1e-12)

    def test_shape_mismatch(self):
        x = ModuleVector(ModuleShape(COMPLEX, (2,)), [[1, 0]])
        y = ModuleVector(ModuleShape(COMPLEX, (1, 1)), [[1], [0]])
        with pytest.raises(ShapeMismatch):
            inner_product(x, y)


class TestNormAndAction:
    def test_norm_examples(self):
        shape = ModuleShape(COMPLEX, (2, 1))
        assert module_norm(ModuleVector(shape, [[3, 4], [0]])) == 5
        assert module_norm(ModuleVector.zeros(shape)) == 0
        line = ModuleShape(COMPLEX, (1, 1, 1))
        assert module_norm(ModuleVector(line, [[1], [2], [3]])) == 3

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norm_at_extreme_scales(self, scale):
        # The squared entries used to overflow to inf or underflow to 0.
        x = ModuleVector(ModuleShape(COMPLEX, (2,)), [[scale, scale]])
        assert module_norm(x) == pytest.approx(scale * np.sqrt(2), rel=1e-15, abs=0)
        q = ModuleVector(ModuleShape(QUATERNION, (1,)), [[0, 0, scale, scale]])
        assert module_norm(q) == pytest.approx(scale * np.sqrt(2), rel=1e-15, abs=0)
        # A zero fiber of another dimension once set the common scale to 2^0.
        mixed = ModuleVector(ModuleShape(COMPLEX, (1, 2)), [[0], [scale, scale]])
        assert module_norm(mixed) == pytest.approx(scale * np.sqrt(2), rel=1e-15, abs=0)

    def test_norm_matches_inner_product(self):
        rng = np.random.default_rng(25)
        for kind, dims in ((COMPLEX, (3, 2)), (QUATERNION, (1, 1))):
            x = random_vector(rng, ModuleShape(kind, dims))
            assert module_norm(x) == pytest.approx(
                np.sqrt(alg_norm(inner_product(x, x))), rel=1e-12
            )

    def test_action_examples(self):
        shape = ModuleShape(COMPLEX, (1, 1))
        a = AlgebraElement.complexes([2, 3])
        x = ModuleVector(shape, [[1], [1]])
        np.testing.assert_allclose(
            [f[0] for f in left_action(a, x).fibers], [2, 3]
        )
        one = AlgebraElement.ones(COMPLEX, 2)
        np.testing.assert_allclose(
            np.concatenate(left_action(one, x).fibers), np.concatenate(x.fibers)
        )
        # i acting on j gives k
        acted = left_action(AlgebraElement.quaternions([I]), quat_vector(J))
        np.testing.assert_allclose(acted.fibers, [[0, 0, 0, 1]])

    def test_action_is_associative_with_product(self):
        rng = np.random.default_rng(26)
        for kind, dims in ((COMPLEX, (2, 2)), (QUATERNION, (1, 1))):
            shape = ModuleShape(kind, dims)
            a = random_algebra(rng, kind, 2)
            b = random_algebra(rng, kind, 2)
            x = random_vector(rng, shape)
            left = left_action(a * b, x)
            right = left_action(a, left_action(b, x))
            for lf, rf in zip(left.fibers, right.fibers):
                np.testing.assert_allclose(lf, rf, atol=1e-12)

    def test_action_norm_bounds(self):
        rng = np.random.default_rng(27)
        for kind, dims in ((COMPLEX, (3, 2)), (QUATERNION, (1, 1, 1))):
            shape = ModuleShape(kind, dims)
            for _ in range(25):
                a = random_positive_algebra(rng, kind, shape.fiber_count)
                x = random_vector(rng, shape)
                acted = module_norm(left_action(a, x))
                assert acted <= alg_norm(a) * module_norm(x) * (1 + 1e-12)
                floor = module_norm(x) / alg_norm(invert(a))
                assert floor <= acted * (1 + 1e-12)

    def test_action_shape_mismatch(self):
        a = AlgebraElement.complexes([1])
        x = ModuleVector(ModuleShape(COMPLEX, (1, 1)), [[1], [1]])
        with pytest.raises(ShapeMismatch):
            left_action(a, x)


class TestCauchySchwarz:
    def test_sum_inequality(self):
        rng = np.random.default_rng(28)
        for kind, dims in ((COMPLEX, (2, 3)), (QUATERNION, (1, 1))):
            shape = ModuleShape(kind, dims)
            for _ in range(50):
                count = int(rng.integers(1, 5))
                xs = [random_vector(rng, shape) for _ in range(count)]
                ys = [random_vector(rng, shape) for _ in range(count)]
                cross = sum_inner(xs, ys)
                left = alg_norm(cross) ** 2
                right = alg_norm(sum_inner(xs, xs)) * alg_norm(sum_inner(ys, ys))
                assert left <= right * (1 + 1e-11)


def sum_inner(xs, ys):
    acc = inner_product(xs[0], ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + inner_product(x, y)
    return acc


class TestSerialization:
    @pytest.mark.parametrize("kind,dims", [(COMPLEX, (2, 3)), (QUATERNION, (1, 1))])
    def test_payload_roundtrip(self, kind, dims):
        """A scenario vector is read exactly, and its report data lists the
        fibers in order, as [re, im] pairs or [w, x, y, z] rows."""
        rng = np.random.default_rng(29)
        shape = ModuleShape(kind, dims)
        x = random_vector(rng, shape)
        entries = [pairs(f) if kind == COMPLEX else f.tolist() for f in x.fibers]
        read = build_scenario(scenario_doc(shape, vectors={"x": entries})).vectors["x"]
        payload = _report_data(read)
        assert (payload["kind"], payload["dims"]) == (kind, list(dims))
        data = np.array(payload["data"])
        if kind == COMPLEX:
            data = data[0::2] + 1j * data[1::2]
        np.testing.assert_array_equal(data, np.concatenate(x.fibers))


class TestSpectralDefects:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 4),
        m=st.integers(1, 4),
        k=st.integers(-500, 500),
        factors=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
        exact=st.booleans(),
    )
    def test_a_defect_is_within_its_bound_exactly_when_the_spectral_norm_is(
        self, seed, count, m, k, factors, exact
    ):
        """For stacks 2^k d and bounds b > 0 (one value, or one per matrix),
        defect <= b exactly when ||2^k d||_2 <= b; ``exact`` sets the bounds
        to the spectral norms themselves."""
        rng = np.random.default_rng(seed)
        d = np.ldexp(rng.standard_normal((count, m, m, 2)), k).view(complex)[..., 0]
        d *= rng.integers(0, 2, size=(count, m, m))  # sparse, and sometimes all zero
        spectral = np.linalg.norm(d, 2, axis=(-2, -1))
        per_matrix = np.resize(np.ldexp(np.asarray(factors), k), count)
        for bound in (spectral if exact else per_matrix, per_matrix[0]):
            np.testing.assert_array_equal(_spectral_defects(d, bound) <= bound, spectral <= bound)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    def test_a_matrix_with_a_non_finite_entry_has_defect_inf(self, bad):
        d = np.zeros((3, 2, 2), dtype=complex)
        d[1, 0, 1] = bad
        d[2] = 1e-3
        np.testing.assert_array_equal(_spectral_defects(d, 1.0), [0.0, np.inf, 2e-3])


class TestOverflowIsRefused:
    """Arithmetic past the float range is refused as not finite, with no
    numpy warning on the way: the suite makes a RuntimeWarning an error."""

    @staticmethod
    def huge(kind: str, big: float = 1e200) -> ModuleVector:
        """A two-fiber vector with one entry ``big`` and one entry 1."""
        if kind == COMPLEX:
            return ModuleVector(ModuleShape(COMPLEX, (2, 2)), [[big, 0], [1, 0]])
        return quat_vector([big, 0, 0, 0], [1, 0, 0, 0])

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_scaled(self, kind):
        with pytest.raises(NotFinite):
            self.huge(kind) * 1e200

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_sum_and_difference(self, kind):
        x = self.huge(kind, 1.7e308)
        with pytest.raises(NotFinite):
            x + x
        with pytest.raises(NotFinite):
            x - (-x)

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_inner_product(self, kind):
        x = self.huge(kind)
        with pytest.raises(NotFinite):
            inner_product(x, x)

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_left_action(self, kind):
        with pytest.raises(NotFinite):
            left_action(AlgebraElement.from_real([1e200, 1], kind), self.huge(kind))

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_sequence_norm(self, kind):
        with pytest.raises(NotFinite):
            ModuleSequence([self.huge(kind)]).norm()
