"""Tests for the fiberwise algebra: quaternions, involution, positivity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    NotFinite,
    NotInvertible,
    NotPositive,
    PositivityClass,
    ShapeMismatch,
    alg_norm,
    invert,
    is_central,
    order_leq,
    positivity_class,
    sqrt_positive,
    star,
)
from cstar_fusion.cli import _report_data
from helpers import random_algebra, random_positive_algebra

def quat(w, x=0.0, y=0.0, z=0.0) -> AlgebraElement:
    """The one-fiber quaternion element w + x*i + y*j + z*k."""
    return AlgebraElement.quaternions([[w, x, y, z]])


ONE = quat(1)
I = quat(0, 1)
J = quat(0, 0, 1)
K = quat(0, 0, 0, 1)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quaternions = st.builds(quat, finite, finite, finite, finite)


def assert_quat_equal(a: AlgebraElement, b: AlgebraElement, tol=1e-12):
    assert alg_norm(a - b) <= tol


class TestQuaternion:
    def test_defining_relations(self):
        assert_quat_equal(I * J, K)
        assert_quat_equal(J * K, I)
        assert_quat_equal(K * I, J)
        assert_quat_equal(I * I, -ONE)
        assert_quat_equal(J * J, -ONE)
        assert_quat_equal(I * J * K, -ONE)

    def test_hand_expanded_product(self):
        # (1 + i)(1 + j) = 1 + j + i + ij = 1 + i + j + k
        assert_quat_equal(quat(1, 1) * quat(1, 0, 1), quat(1, 1, 1, 1))

    def test_noncommutative(self):
        assert alg_norm(I * J - J * I) > 1

    @given(quaternions, quaternions)
    def test_norm_multiplicative(self, a, b):
        assert alg_norm(a * b) == pytest.approx(alg_norm(a) * alg_norm(b), rel=1e-11, abs=1e-11)

    @given(quaternions, quaternions, quaternions)
    def test_associative(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        scale = max(1.0, alg_norm(a) * alg_norm(b) * alg_norm(c))
        assert alg_norm(left - right) <= 1e-11 * scale

    def test_conjugation_recovers_norm(self):
        q = quat(1, 2, 3, 4)
        assert_quat_equal(q * star(q), quat(alg_norm(q) ** 2))

    def test_inverse(self):
        assert_quat_equal(invert(I), -I)
        assert_quat_equal(quat(1, 2, 3, 4) * invert(quat(1, 2, 3, 4)), ONE)
        with pytest.raises(NotInvertible):
            invert(quat(0))


class TestStar:
    def test_complex_conjugation(self):
        a = AlgebraElement.complexes([1 + 2j, 3])
        np.testing.assert_allclose(star(a).fibers, [1 - 2j, 3])

    def test_quaternion_conjugation(self):
        a = AlgebraElement.quaternions([[1, 2, 3, 4]])
        np.testing.assert_allclose(star(a).fibers, [[1, -2, -3, -4]])

    def test_unit_selfadjoint(self):
        one = AlgebraElement.ones(QUATERNION, 3)
        np.testing.assert_allclose(star(one).fibers, one.fibers)

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_involution_and_antihomomorphism(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_algebra(rng, kind, 4)
            b = random_algebra(rng, kind, 4)
            np.testing.assert_allclose(star(star(a)).fibers, a.fibers)
            np.testing.assert_allclose(
                star(a * b).fibers, (star(b) * star(a)).fibers, atol=1e-12
            )


class TestNormAndPositivity:
    def test_norm_examples(self):
        assert alg_norm(AlgebraElement.complexes([1, 4, 9])) == 9
        assert alg_norm(AlgebraElement.zeros(COMPLEX, 2)) == 0
        single = quat(1, 2, 3, 4)
        assert alg_norm(single) == pytest.approx(np.sqrt(30), rel=1e-15)

    def test_positivity_examples(self):
        assert positivity_class(AlgebraElement.complexes([1, 4, 9])) is PositivityClass.STRICTLY_POSITIVE
        assert positivity_class(AlgebraElement.complexes([0, 2])) is PositivityClass.POSITIVE
        assert positivity_class(AlgebraElement.complexes([1j, 1])) is PositivityClass.NOT_SELFADJOINT
        assert positivity_class(AlgebraElement.complexes([-1, 2])) is PositivityClass.SELFADJOINT
        spun = quat(1, 0.5)
        assert positivity_class(spun) is PositivityClass.NOT_SELFADJOINT

    def test_classes_nest(self):
        a = AlgebraElement.complexes([2, 3])
        cls = positivity_class(a)
        assert cls >= PositivityClass.POSITIVE >= PositivityClass.SELFADJOINT

    def test_sqrt_examples(self):
        root = sqrt_positive(AlgebraElement.complexes([1, 4, 9]))
        np.testing.assert_allclose(root.fibers, [1, 2, 3])
        np.testing.assert_allclose(sqrt_positive(AlgebraElement.zeros(COMPLEX, 2)).fibers, 0)
        np.testing.assert_allclose(
            sqrt_positive(AlgebraElement.complexes([2])).fibers, [np.sqrt(2)]
        )

    def test_sqrt_rejects_non_positive(self):
        with pytest.raises(NotPositive):
            sqrt_positive(AlgebraElement.complexes([-1, 1]))
        with pytest.raises(NotPositive):
            sqrt_positive(AlgebraElement.complexes([1j]))

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_sqrt_squares_back(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_positive_algebra(rng, kind, 6, low=0.0, high=4.0)
            root = sqrt_positive(a)
            np.testing.assert_allclose(
                (root * root).fibers, a.fibers, rtol=1e-12, atol=1e-12
            )
            assert is_central(root)

    def test_invert_examples(self):
        np.testing.assert_allclose(invert(AlgebraElement.complexes([1, 4])).fibers, [1, 0.25])
        one = AlgebraElement.ones(COMPLEX, 3)
        np.testing.assert_allclose(invert(one).fibers, one.fibers)
        np.testing.assert_allclose(invert(I).fibers, [[0, -1, 0, 0]])

    def test_invert_roundtrip_and_failure(self):
        rng = np.random.default_rng(6)
        for kind in (COMPLEX, QUATERNION):
            a = random_algebra(rng, kind, 5)
            prod = a * invert(a)
            np.testing.assert_allclose(prod.fibers, AlgebraElement.ones(kind, 5).fibers, atol=1e-12)
        with pytest.raises(NotInvertible):
            invert(AlgebraElement.complexes([1, 0]))

    def test_strictly_positive_inverse_norm(self):
        a = AlgebraElement.complexes([0.5, 2, 4])
        assert 1.0 / alg_norm(invert(a)) == pytest.approx(0.5)


class TestOrderAndCenter:
    def test_order_examples(self):
        a = AlgebraElement.complexes([1, 2, 3])
        b = AlgebraElement.complexes([2, 2, 5])
        assert order_leq(a, b)
        assert not order_leq(AlgebraElement.complexes([1, 2]), AlgebraElement.complexes([2, 1]))
        assert order_leq(a, a)

    def test_order_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            order_leq(AlgebraElement.complexes([1]), AlgebraElement.complexes([1, 2]))
        with pytest.raises(ShapeMismatch):
            order_leq(AlgebraElement.complexes([1]), AlgebraElement.ones(QUATERNION, 1))

    def test_centrality(self):
        assert is_central(AlgebraElement.complexes([1 + 1j, 2]))
        assert is_central(AlgebraElement.quaternions([[1, 0, 0, 0], [2, 0, 0, 0]]))
        mixed = AlgebraElement.quaternions([[0, 1, 0, 0], [1, 0, 0, 0]])
        assert not is_central(mixed)
        # the witness: i fails to commute with j
        assert alg_norm(I * J - J * I) > 0

    def test_central_multiplication_increasing(self):
        # multiplying an ordered pair by a central strictly positive element
        # preserves the order
        rng = np.random.default_rng(7)
        for kind in (COMPLEX, QUATERNION):
            for _ in range(50):
                a = AlgebraElement.from_real(rng.standard_normal(5), kind)
                b = a + random_positive_algebra(rng, kind, 5, low=0.0)
                mu = random_positive_algebra(rng, kind, 5)
                assert order_leq(mu * a, mu * b, tol=1e-10)

    def test_multiplication_norm_sandwich(self):
        rng = np.random.default_rng(8)
        for kind in (COMPLEX, QUATERNION):
            for _ in range(50):
                mu = random_positive_algebra(rng, kind, 5)
                a = random_algebra(rng, kind, 5)
                lower = alg_norm(a) / alg_norm(invert(mu))
                upper = alg_norm(mu) * alg_norm(a)
                assert lower <= alg_norm(mu * a) * (1 + 1e-12)
                assert alg_norm(mu * a) <= upper * (1 + 1e-12)


class TestCStarIdentity:
    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_identity_and_submultiplicativity(self, kind):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = random_algebra(rng, kind, 4)
            b = random_algebra(rng, kind, 4)
            assert alg_norm(star(a) * a) == pytest.approx(alg_norm(a) ** 2, rel=1e-12)
            assert alg_norm(a * b) <= alg_norm(a) * alg_norm(b) * (1 + 1e-12)


class TestConstructionAndSerialization:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AlgebraElement.complexes([])

    def test_mixed_kind_rejected(self):
        with pytest.raises(ShapeMismatch):
            AlgebraElement.complexes([1]) + AlgebraElement.ones(QUATERNION, 1)

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fibers_rejected(self, kind, bad):
        # A NaN element used to pass: its positivity class was
        # STRICTLY_POSITIVE, a NaN quaternion was central and sqrt_positive
        # returned NaN.
        with pytest.raises(NotFinite, match="algebra element fibers must be finite"):
            AlgebraElement.from_real([1.0, bad], kind)
        with pytest.raises(NotFinite):
            AlgebraElement.complexes([complex(0.0, bad)])
        with pytest.raises(NotFinite):
            AlgebraElement.quaternions([[1.0, 0.0, bad, 0.0]])
        big = AlgebraElement.from_real([1e200], kind)
        with np.errstate(over="ignore"), pytest.raises(NotFinite):
            big * big  # a product that overflows

    def test_immutable(self):
        a = AlgebraElement.complexes([1, 2])
        with pytest.raises(AttributeError):
            a.kind = QUATERNION
        with pytest.raises(ValueError):
            a.fibers[0] = 5

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_payload_roundtrip(self, kind):
        """Report data lists the fibers in order, as [re, im] or [w, x, y, z]."""
        rng = np.random.default_rng(10)
        a = random_algebra(rng, kind, 3)
        payload = _report_data(a)
        assert payload["kind"] == kind
        data = np.array(payload["data"])
        if kind == COMPLEX:
            pairs = data.reshape(-1, 2)
            np.testing.assert_array_equal(pairs[:, 0] + 1j * pairs[:, 1], a.fibers)
        else:
            np.testing.assert_array_equal(data.reshape(-1, 4), a.fibers)
