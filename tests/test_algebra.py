"""Tests for the fiberwise algebra: quaternions, involution, positivity."""

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_a_quaternion_norm_beyond_the_square_range_is_finite(self):
        # Each square overflows; the complex modulus never did.
        three, four = np.ldexp(3.0, 700), np.ldexp(4.0, 700)
        assert alg_norm(quat(three, 0, four, 0)) == np.ldexp(5.0, 700)
        assert alg_norm(AlgebraElement.complexes([three + 1j * four])) == np.ldexp(5.0, 700)

    @given(st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=4, max_size=4))
    def test_quaternion_moduli_keep_their_bits(self, parts):
        # Where no square leaves the normal range, the unscaled formula's bits.
        a = np.array([parts])
        squares = a * a
        if np.all((a == 0) | (squares >= np.finfo(float).tiny)):
            assert quat(*parts).fiber_moduli()[0] == np.sqrt(np.sum(squares))

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

    @pytest.mark.parametrize(
        "element",
        [AlgebraElement.complexes([1e-320]), AlgebraElement.complexes([2, 3e-309j]),
         AlgebraElement.quaternions([[1, 0, 0, 0], [1e-320, 0, 0, 0]])],
        ids=["complex-subnormal", "complex-second-fiber", "quaternion-subnormal"],
    )
    def test_inverse_outside_the_float_range_is_refused(self, element):
        # the inverse's modulus exceeds the largest float; no warning either
        # (tier-1 turns RuntimeWarnings into errors)
        with pytest.raises(NotInvertible, match=f"fiber {element.fiber_count - 1} "):
            invert(element)

    def test_quaternion_inverse_survives_an_underflowing_modulus(self):
        # |q|^2 = 1e-340 underflows to 0, but 1/q = 1e170 is a float
        inverse = invert(quat(1e-170))
        assert inverse.fibers[0, 0] == pytest.approx(1e170, rel=1e-15)
        assert not inverse.fibers[0, 1:].any()

    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    def test_inverse_roundtrip_across_the_float_range(self, kind):
        rng = np.random.default_rng(61)
        directions = random_algebra(rng, kind, 61)
        moduli = 10.0 ** np.linspace(-300, 300, 61)  # one per fiber
        a = AlgebraElement(kind, (directions.fibers.T * moduli / directions.fiber_moduli()).T)
        prod = a * invert(a)
        np.testing.assert_allclose(prod.fibers, AlgebraElement.ones(kind, 61).fibers, rtol=0, atol=8e-16)

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


# Magnitudes that stay normal under every scaling 2^k, |k| <= 600, below.
moderate = st.floats(min_value=-1e50, max_value=1e50).filter(lambda v: v == 0 or abs(v) >= 1e-50)


@st.composite
def element_pairs(draw):
    """(a, b) of one kind and fiber count; b is often a nudged copy of a."""
    kind = draw(st.sampled_from([COMPLEX, QUATERNION]))
    width = 2 if kind == COMPLEX else 4
    n = draw(st.integers(1, 3))
    rows = st.lists(st.lists(moderate, min_size=width, max_size=width), min_size=n, max_size=n)
    a = np.array(draw(rows))
    b = draw(st.one_of(rows.map(np.array), st.just(a * (1 + 2.0**-40)), st.just(a * 2.0)))
    make = (lambda r: AlgebraElement(kind, r.view(complex)[:, 0])) if kind == COMPLEX else (
        lambda r: AlgebraElement(kind, r))
    return make(a), make(b)


class TestScaleFreeVerdicts:
    """Each default tolerance is a constant times its own operand's norm, and
    every length is taken at its row's exact scale, so no positivity, order
    or centrality verdict depends on the unit of the data."""

    def test_a_large_vector_part_is_measured_without_overflow(self):
        big = quat(1, 1e200)
        assert positivity_class(big) is PositivityClass.NOT_SELFADJOINT
        assert not is_central(big)

    def test_tiny_elements_are_ordered_at_their_own_scale(self):
        assert not order_leq(AlgebraElement.complexes([2e-20]), AlgebraElement.complexes([1e-20]))
        tiny = AlgebraElement.complexes([1e-20, 2e-20])
        assert positivity_class(tiny) is PositivityClass.STRICTLY_POSITIVE

    @pytest.mark.parametrize("scale", [1.0, 2.0**66])
    def test_a_one_ulp_pair_is_ordered_at_every_scale(self, scale):
        above = AlgebraElement.complexes([scale * (1 + 2.0**-52)])
        assert order_leq(above, AlgebraElement.complexes([scale]))

    def test_an_underflowing_vector_part_still_counts(self):
        # |1e-170|^2 underflows to 0; the vector part is the whole norm.
        assert not is_central(quat(1e-300, 1e-170))

    @settings(max_examples=300, deadline=None)
    @given(element_pairs(), st.integers(-600, 600))
    def test_verdicts_do_not_change_under_a_power_of_two(self, pair, k):
        a, b = pair
        a2, b2 = (AlgebraElement(x.kind, x.fibers * 2.0**k) for x in pair)
        assert positivity_class(a2) is positivity_class(a)
        assert is_central(a2) == is_central(a)
        assert order_leq(a2, b2) == order_leq(a, b)
        assert order_leq(b2, a2) == order_leq(b, a)


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


class TestOverflowIsRefused:
    """Arithmetic past the float range is refused as not finite, with no
    numpy warning on the way: the suite makes a RuntimeWarning an error."""

    @pytest.mark.parametrize(
        "form", [lambda a: a + a, lambda a: a - (-a), lambda a: a * 2.0, lambda a: 2.0 * a],
        ids=["sum", "difference", "scaled", "scaled-on-the-left"],
    )
    def test_complex(self, form):
        with pytest.raises(NotFinite):
            form(AlgebraElement.complexes([1.7e308]))

    def test_quaternion_product(self):
        a = quat(1e200)
        with pytest.raises(NotFinite):
            a * a
