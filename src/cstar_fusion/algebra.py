"""Fiberwise C*-algebra arithmetic over complex and quaternion scalars.

An element of the algebra holds one scalar per fiber.  Products, involution
and order are all decided fiber by fiber, and the norm is the largest fiber
modulus, so the C*-identity ``norm(a* a) == norm(a)**2`` holds exactly.
Complex fibers give a commutative algebra; quaternion fibers a
noncommutative one whose center consists of the elements with real fibers.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .errors import NotFinite, NotInvertible, NotPositive, ShapeMismatch
from .tolerance import ORDER_TOL

COMPLEX = "complex"
QUATERNION = "quaternion"
_KINDS = (COMPLEX, QUATERNION)


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise Hamilton product of (..., 4) arrays."""
    w1, x1, y1, z1 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    w2, x2, y2, z2 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quaternion_block(rows) -> np.ndarray:
    """The exact star-representation chi(q) = [[a, b], [-conj(b), conj(a)]] of (w, x, y, z)
    rows q = a + b j, a = w + xi, b = y + zi (F. Zhang, Linear Algebra Appl. 251, 1997)."""
    w, x, y, z = np.moveaxis(np.asarray(rows, dtype=float), -1, 0)
    return np.stack([w, x, y, z, -y, z, w, -x], axis=-1).view(complex).reshape(w.shape + (2, 2))


def _quat_conj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _refuses_overflow(fn):
    """``fn`` with numpy's overflow and invalid warnings off: a result past
    the float range is formed as inf or nan, which its constructor refuses
    (NotFinite), so the warning would only repeat the refusal."""

    @functools.wraps(fn)
    def forming(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return forming


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NotFinite unless every entry is finite.  The squared norm is
    finite only if every entry is, and one dot product is the cheapest test;
    an overflowed norm is rechecked."""
    if not cmath.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NotFinite(f"{what} must be finite")


def _frexp_exponent(a: np.ndarray, axis=None) -> np.ndarray:
    """The exponent e of every exact 2^-e scaling: the ``np.frexp`` exponent
    of the largest |re| or |im| over ``axis`` (0 where all are zero); the
    complex modulus could itself overflow.  Any memory layout is taken."""
    floats = np.require(a, requirements="C").view(float)  # a view needs a contiguous last axis
    return np.frexp(abs(floats).max(axis=axis, initial=0.0))[1]


def _ldexp(a: np.ndarray, e) -> np.ndarray:
    """``a * 2**e`` for any memory layout, exact unless it overflows or underflows."""
    return np.ldexp(np.require(a, requirements="C").view(float), e).view(a.dtype)


def _lengths(a: np.ndarray, axis=-1) -> np.ndarray:
    """Each row's Euclidean length over ``axis`` (two axes: a block's Frobenius
    norm), taken at its exact scale 2^-e, so no square overflows or underflows."""
    e = _frexp_exponent(a, axis)
    scaled = _ldexp(a, -np.expand_dims(e, axis)).view(float)
    return _ldexp(np.sqrt(np.sum(scaled * scaled, axis=axis)), e)


class PositivityClass(IntEnum):
    """Nested positivity classes, finest last."""

    NOT_SELFADJOINT = 0
    SELFADJOINT = 1
    POSITIVE = 2
    STRICTLY_POSITIVE = 3


@dataclass(frozen=True, slots=True, eq=False)
class AlgebraElement:
    """One scalar per fiber, all fibers of a single kind.

    Complex elements store a complex array of shape (N,); quaternion
    elements a float array of shape (N, 4) with rows (w, x, y, z).  The
    fibers are finite (else NotFinite).  Instances are immutable.
    """

    kind: str
    fibers: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        if self.kind == COMPLEX:
            arr = np.asarray(self.fibers, dtype=complex).reshape(-1)
        else:
            arr = np.asarray(self.fibers, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise ValueError("quaternion fibers must form an (N, 4) array")
        if arr.shape[0] < 1:
            raise ValueError("an algebra element needs at least one fiber")
        _require_finite(arr, "algebra element fibers")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "fibers", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def complexes(cls, values: Iterable[complex]) -> "AlgebraElement":
        return cls(COMPLEX, list(values))

    @classmethod
    def quaternions(cls, rows: Sequence) -> "AlgebraElement":
        """From (w, x, y, z) rows, one per fiber."""
        return cls(QUATERNION, rows)

    @classmethod
    def from_real(cls, values, kind: str) -> "AlgebraElement":
        """Lift real fiber values into the given kind."""
        vals = np.asarray(values, dtype=float).reshape(-1)
        if kind == COMPLEX:
            return cls(COMPLEX, vals.astype(complex))
        rows = np.zeros((vals.shape[0], 4))
        rows[:, 0] = vals
        return cls(QUATERNION, rows)

    @classmethod
    def ones(cls, kind: str, n: int) -> "AlgebraElement":
        return cls.from_real(np.ones(n), kind)

    @classmethod
    def zeros(cls, kind: str, n: int) -> "AlgebraElement":
        return cls.from_real(np.zeros(n), kind)

    # -- structure ---------------------------------------------------------

    @property
    def fiber_count(self) -> int:
        return int(self.fibers.shape[0])

    def _rows(self) -> np.ndarray:
        """The fibers as one real (N, d) view: rows (re, im) or (w, x, y, z)."""
        return self.fibers.view(float).reshape(self.fiber_count, -1)

    def _from_rows(self, rows: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self.kind, rows.view(self.fibers.dtype).reshape(self.fibers.shape))

    def fiber_moduli(self) -> np.ndarray:
        """|a_k| per fiber, the length of its row (``_lengths``)."""
        return _lengths(self._rows())

    def real_parts(self) -> np.ndarray:
        return self._rows()[:, 0].copy()

    def imag_magnitudes(self) -> np.ndarray:
        """Modulus of the non-real part of each fiber."""
        return _lengths(self._rows()[:, 1:])

    def star(self) -> "AlgebraElement":
        return self._from_rows(_quat_conj(self._rows()))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.kind != other.kind:
            raise ShapeMismatch(f"mixed scalar kinds {self.kind!r} and {other.kind!r}")
        if self.fiber_count != other.fiber_count:
            raise ShapeMismatch(
                f"fiber counts differ: {self.fiber_count} vs {other.fiber_count}"
            )

    @_refuses_overflow
    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        return AlgebraElement(self.kind, self.fibers + other.fibers)

    @_refuses_overflow
    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        return AlgebraElement(self.kind, self.fibers - other.fibers)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.kind, -np.asarray(self.fibers))

    @_refuses_overflow
    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            if self.kind == COMPLEX:
                return AlgebraElement(COMPLEX, self.fibers * other.fibers)
            return AlgebraElement(QUATERNION, _hamilton(self.fibers, other.fibers))
        if isinstance(other, (int, float)):
            return AlgebraElement(self.kind, np.asarray(self.fibers) * float(other))
        return NotImplemented

    __rmul__ = __mul__  # reached only for a scalar on the left, which commutes

    def __repr__(self) -> str:
        return f"AlgebraElement({self.kind!r}, {np.asarray(self.fibers).tolist()!r})"


def star(a: AlgebraElement) -> AlgebraElement:
    """Fiberwise involution: complex or quaternion conjugation."""
    return a.star()


def alg_norm(a: AlgebraElement) -> float:
    """Largest fiber modulus."""
    return float(np.max(a.fiber_moduli()))


def _default_tol(a: AlgebraElement) -> float:
    return ORDER_TOL * alg_norm(a)


def positivity_class(a: AlgebraElement, tol: float | None = None) -> PositivityClass:
    """Finest of {not_selfadjoint, selfadjoint, positive, strictly_positive}
    that holds fiberwise within ``tol`` (default ORDER_TOL * |a|)."""
    if tol is None:
        tol = _default_tol(a)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if float(np.max(a.imag_magnitudes())) > tol:
        return PositivityClass.NOT_SELFADJOINT
    smallest = float(np.min(a.real_parts()))
    if smallest < -tol:
        return PositivityClass.SELFADJOINT
    if smallest <= tol:
        return PositivityClass.POSITIVE
    return PositivityClass.STRICTLY_POSITIVE


def sqrt_positive(a: AlgebraElement) -> AlgebraElement:
    """The unique positive square root of a positive element.

    The root has real fibers, so it is central whenever the input is.
    """
    if positivity_class(a) < PositivityClass.POSITIVE:
        raise NotPositive("square root requires a positive element")
    roots = np.sqrt(np.clip(a.real_parts(), 0.0, None))
    return AlgebraElement.from_real(roots, a.kind)


def invert(a: AlgebraElement) -> AlgebraElement:
    """Fiberwise inverse; fails, naming the fiber, if a fiber is zero or its
    inverse lies outside the float range.

    Each fiber a is inverted as conj(a) / |a|^2 at the exact scale 2^-e, e
    the exponent of its largest real component (``_frexp_exponent``), so
    |a|^2 neither underflows nor overflows.
    """
    parts = a._rows()
    e = _frexp_exponent(parts, 1)[:, None]
    scaled = _ldexp(parts, -e)
    invertible = scaled.any(axis=1)
    squared = np.where(invertible, np.sum(scaled * scaled, axis=1), 1.0)[:, None]
    scaled[:, 1:] *= -1.0
    with np.errstate(over="ignore"):
        inverse = _ldexp(scaled / squared, -e)
    invertible &= np.isfinite(inverse).all(axis=1)
    if not invertible.all():
        raise NotInvertible(f"fiber {int(np.argmin(invertible))} has no finite inverse")
    return a._from_rows(inverse)


def order_leq(a: AlgebraElement, b: AlgebraElement, tol: float | None = None) -> bool:
    """True iff b - a is positive within ``tol`` (the algebra order), by
    default ORDER_TOL * max(|a|, |b|): relative to b - a, it would fail on
    the rounding of the difference."""
    a._check_compatible(b)
    if tol is None:
        tol = ORDER_TOL * max(alg_norm(a), alg_norm(b))
    return positivity_class(b - a, tol) >= PositivityClass.POSITIVE


def is_central(a: AlgebraElement) -> bool:
    """Whether the element commutes with the whole algebra.

    Complex fibers always commute; a quaternion fiber commutes with all of
    its peers exactly when its vector part vanishes.
    """
    if a.kind == COMPLEX:
        return True
    return float(np.max(a.imag_magnitudes())) <= _default_tol(a)
