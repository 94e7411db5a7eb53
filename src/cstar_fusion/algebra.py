"""Fiberwise C*-algebra arithmetic over complex and quaternion scalars.

An element of the algebra holds one scalar per fiber.  Products, involution
and order are all decided fiber by fiber, and the norm is the largest fiber
modulus, so the C*-identity ``norm(a* a) == norm(a)**2`` holds exactly.
Complex fibers give a commutative algebra; quaternion fibers a
noncommutative one whose center consists of the elements with real fibers.
"""

from __future__ import annotations

import cmath
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


def _quat_conj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NotFinite unless every entry is finite.  The squared norm is
    finite only if every entry is, and one dot product is the cheapest test;
    an overflowed norm is rechecked."""
    if not cmath.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise NotFinite(f"{what} must be finite")


def _quat_abs(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(a * a, axis=-1))


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

    def fiber_moduli(self) -> np.ndarray:
        if self.kind == COMPLEX:
            return np.abs(self.fibers)
        return _quat_abs(self.fibers)

    def real_parts(self) -> np.ndarray:
        if self.kind == COMPLEX:
            return self.fibers.real.copy()
        return self.fibers[:, 0].copy()

    def imag_magnitudes(self) -> np.ndarray:
        """Modulus of the non-real part of each fiber."""
        if self.kind == COMPLEX:
            return np.abs(self.fibers.imag)
        return np.sqrt(np.sum(self.fibers[:, 1:] ** 2, axis=-1))

    def star(self) -> "AlgebraElement":
        if self.kind == COMPLEX:
            return AlgebraElement(COMPLEX, np.conj(self.fibers))
        return AlgebraElement(QUATERNION, _quat_conj(np.asarray(self.fibers)))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.kind != other.kind:
            raise ShapeMismatch(f"mixed scalar kinds {self.kind!r} and {other.kind!r}")
        if self.fiber_count != other.fiber_count:
            raise ShapeMismatch(
                f"fiber counts differ: {self.fiber_count} vs {other.fiber_count}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        return AlgebraElement(self.kind, self.fibers + other.fibers)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        return AlgebraElement(self.kind, self.fibers - other.fibers)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.kind, -np.asarray(self.fibers))

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
    return ORDER_TOL * max(1.0, alg_norm(a))


def positivity_class(a: AlgebraElement, tol: float | None = None) -> PositivityClass:
    """Finest of {not_selfadjoint, selfadjoint, positive, strictly_positive}
    that holds fiberwise within ``tol``."""
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
    """Fiberwise inverse; fails if any fiber modulus is zero."""
    moduli = a.fiber_moduli()
    if float(np.min(moduli)) <= 0.0:
        raise NotInvertible(f"fiber modulus {float(np.min(moduli))!r} is not positive")
    if a.kind == COMPLEX:
        return AlgebraElement(COMPLEX, 1.0 / a.fibers)
    conj = _quat_conj(np.asarray(a.fibers))
    return AlgebraElement(QUATERNION, conj / (moduli**2)[:, None])


def order_leq(a: AlgebraElement, b: AlgebraElement, tol: float | None = None) -> bool:
    """True iff b - a is positive within ``tol`` (the algebra order)."""
    a._check_compatible(b)
    return positivity_class(b - a, tol) >= PositivityClass.POSITIVE


def is_central(a: AlgebraElement) -> bool:
    """Whether the element commutes with the whole algebra.

    Complex fibers always commute; a quaternion fiber commutes with all of
    its peers exactly when its vector part vanishes.
    """
    if a.kind == COMPLEX:
        return True
    return float(np.max(a.imag_magnitudes())) <= _default_tol(a)
