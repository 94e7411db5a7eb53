"""Fiberwise Hilbert module over the fiberwise algebra.

A module vector holds one small vector per fiber (complex fibers may have
any dimension, quaternion fibers are one-dimensional).  The inner product
is algebra-valued and taken fiber by fiber; the module norm is the algebra
norm of |x| = <x,x>^(1/2), which here is just the largest Euclidean fiber
length.  The inner product is linear in its first argument.

Per-fiber data (vectors here, projections, frame-operator fibers and
rotations elsewhere) is stored as one stacked array per fiber dimension,
``{m: (count, ...)}`` in the order of ``ModuleShape.groups``, so that every
fiberwise operation is one numpy call per dimension.  Every fiber operator
is a complex matrix on the fiber's complex coordinates, whose number
``ModuleShape.widths`` decides: m for a complex fiber, and two for a
quaternion line, the pair (w + xi, y + zi), on which a quaternion acts as
its complex 2x2 image (``algebra.quaternion_block``).  A vector fiber
holds those coordinates as the algebra holds its scalars: complex, or the
quaternion's (w, x, y, z) row, their float view.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .algebra import COMPLEX, QUATERNION, _KINDS, AlgebraElement, _frexp_exponent, _hamilton
from .algebra import _ldexp, _lengths, _quat_conj, _refuses_overflow, _require_finite
from .errors import QuaternionUnsupported, ShapeMismatch


@dataclass(frozen=True)
class ModuleShape:
    """Fiber count, per-fiber dimensions and scalar kind."""

    kind: str
    dims: tuple[int, ...]
    # Set by the width rule: complex coordinates per dimension (m, or 2), vector dtype.
    widths: dict[int, int] = field(init=False, repr=False, compare=False)
    row_dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        if not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool)
                   for m in self.dims):
            raise ValueError("fiber dimensions must be integers")
        object.__setattr__(self, "dims", tuple(int(m) for m in self.dims))
        if len(self.dims) < 1:
            raise ValueError("a module needs at least one fiber")
        if any(m < 1 for m in self.dims):
            raise ValueError("fiber dimensions must be at least 1")
        quaternion = self.kind == QUATERNION
        if quaternion and any(m != 1 for m in self.dims):
            raise QuaternionUnsupported("quaternion fibers must be one-dimensional")
        widths = {m: 2 if quaternion else m for m in sorted(set(self.dims))}
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "row_dtype", np.dtype(float if quaternion else complex))

    @property
    def fiber_count(self) -> int:
        return len(self.dims)

    @cached_property
    def groups(self) -> dict[int, np.ndarray]:
        """The fiber indices of each fiber dimension, by increasing dimension;
        each key is a Python int, each index array increasing."""
        dims = np.asarray(self.dims)
        # Not np.unique: in numpy 2 it imports numpy.ma, which costs a process ~1 MiB.
        return {m: np.flatnonzero(dims == m) for m in sorted(set(self.dims))}

    def gather(self, values: np.ndarray) -> dict[int, np.ndarray]:
        """Split an array indexed by fiber into one block per dimension."""
        return {m: values[idx] for m, idx in self.groups.items()}

    @cached_property
    def fiber_order(self) -> np.ndarray:
        """Where each fiber sits in the blocks laid end to end in group order."""
        return np.argsort(np.concatenate(list(self.groups.values())))

    def scatter(self, blocks: dict[int, np.ndarray]) -> np.ndarray:
        """Inverse of ``gather``: blocks back into one array indexed by fiber."""
        return np.concatenate([blocks[m] for m in self.groups])[self.fiber_order]


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def _hermitian(a: np.ndarray) -> np.ndarray:
    """The Hermitian part (a + a^H) / 2 of every matrix in a stack."""
    return (a + _adjoint(a)) / 2.0


def _spectral_defects(d: np.ndarray, bound) -> np.ndarray:
    """Each matrix's defect against ``bound`` (one, or one per matrix): its
    Frobenius norm (``_lengths``) where that is at most bound / 2, its
    spectral norm elsewhere, inf where an entry is not finite.  So a defect
    is at most ``bound`` exactly when ||d||_2 is."""
    defects = _lengths(d, (-2, -1))
    past = ~(defects <= np.asarray(bound) / 2)
    if past.any():
        finite = past & np.isfinite(d).all(axis=(-2, -1))
        defects[past] = np.inf
        defects[finite] = np.linalg.norm(d[finite], 2, axis=(-2, -1))
    return defects


def _fiber(entry, k: int, tail: tuple[int, ...], dtype, exact: bool) -> np.ndarray:
    arr = np.asarray(entry, dtype=dtype)
    if arr.shape != tail and (exact or arr.size != np.prod(tail)):
        raise ShapeMismatch(f"fiber {k} has shape {arr.shape}, expected {tail}", fiber=k)
    return arr.reshape(tail)


@dataclass(frozen=True, slots=True, eq=False)
class FiberBlocks:
    """Immutable per-fiber data of one module shape, held as one read-only
    block per fiber dimension: ``blocks[m]`` stacks the fibers in
    ``shape.groups[m]``.  Subclasses fill ``blocks`` in ``__post_init__``
    with ``_store``.

    The data is given as such a dict, as one array stacked over the fibers
    of a module with a single fiber dimension, or with one entry per fiber.
    A fiber holds a complex (w, w) matrix on its w = ``shape.widths[m]``
    coordinates, or a vector of those coordinates in ``shape.row_dtype``
    (length m; quaternion: the row of 4).  A per-fiber vector is reshaped
    to that shape; a matrix must already have it.
    """

    shape: ModuleShape
    blocks: dict[int, np.ndarray] = field(init=False, repr=False)
    _views: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False)

    def _store(self, fibers, matrix: bool) -> None:
        shape = self.shape
        dtype = complex if matrix else shape.row_dtype
        tails = {m: (w, w) if matrix else (w if dtype.kind == "c" else 2 * w,)
                 for m, w in shape.widths.items()}
        if isinstance(fibers, np.ndarray) and [fibers.shape[1:]] == list(tails.values()):
            fibers = {shape.dims[0]: fibers}
        elif not isinstance(fibers, dict):
            if len(fibers) != shape.fiber_count:
                raise ShapeMismatch(f"expected {shape.fiber_count} fibers, got {len(fibers)}")
            fibers = {
                m: [_fiber(fibers[k], k, tails[m], dtype, matrix) for k in idx]
                for m, idx in shape.groups.items()
            }
        if fibers.keys() != tails.keys():
            raise ShapeMismatch(f"blocks for dimensions {sorted(fibers)}, not {sorted(tails)}")
        blocks = {m: np.array(fibers[m], dtype=dtype) for m in tails}
        for m, idx in shape.groups.items():
            if blocks[m].shape != (len(idx), *tails[m]):
                raise ShapeMismatch(f"dimension-{m} block has shape {blocks[m].shape}")
            blocks[m].setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def fibers(self) -> tuple[np.ndarray, ...]:
        """Read-only per-fiber views into ``blocks``, in fiber order."""
        if self._views is None:
            views = [view for block in self.blocks.values() for view in block]
            object.__setattr__(self, "_views", tuple(views[k] for k in self.shape.fiber_order))
        return self._views

    def _check_same_shape(self, other: "FiberBlocks") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch(f"module shapes differ: {self.shape} vs {other.shape}")


@dataclass(frozen=True, slots=True, eq=False)
class ModuleVector(FiberBlocks):
    """One vector per fiber; immutable.

    Complex fiber k is a complex array of length dims[k]; a quaternion
    fiber is a single (w, x, y, z) row of length 4, whose complex view is
    the pair (w + xi, y + zi) every fiber operator acts on.
    """

    # field() keeps the inherited ``fibers`` property from becoming a default
    fibers: InitVar[object] = field()

    def __post_init__(self, fibers) -> None:
        self._store(fibers, matrix=False)
        for block in self.blocks.values():
            _require_finite(block, "module vector entries")

    @classmethod
    def zeros(cls, shape: ModuleShape) -> "ModuleVector":
        rows = {m: np.zeros((len(i), shape.widths[m]), complex) for m, i in shape.groups.items()}
        return cls(shape, {m: r.view(shape.row_dtype) for m, r in rows.items()})

    @_refuses_overflow
    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_same_shape(other)
        return ModuleVector(self.shape, {m: b + other.blocks[m] for m, b in self.blocks.items()})

    @_refuses_overflow
    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_same_shape(other)
        return ModuleVector(self.shape, {m: b - other.blocks[m] for m, b in self.blocks.items()})

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.shape, {m: -b for m, b in self.blocks.items()})

    @_refuses_overflow
    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return ModuleVector(self.shape, {m: b * float(other) for m, b in self.blocks.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ModuleVector({self.shape!r}, {[f.tolist() for f in self.fibers]!r})"


def _apply_fibers(op: FiberBlocks, x: ModuleVector) -> ModuleVector:
    """Each fiber's matrix of ``op`` applied to that fiber's complex coordinates in x."""
    op._check_same_shape(x)
    blocks = {m: (a @ x.blocks[m].view(complex)[:, :, None])[:, :, 0] for m, a in op.blocks.items()}
    return ModuleVector(x.shape, {m: b.view(x.blocks[m].dtype) for m, b in blocks.items()})


@_refuses_overflow
def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product, linear in the first argument.

    Complex fiber k gives sum_i x_i * conj(y_i); a quaternion fiber gives
    the Hamilton product x * conj(y).
    """
    x._check_same_shape(y)
    if x.shape.kind == COMPLEX:
        vals = {m: (np.conj(y.blocks[m])[:, None, :] @ b[:, :, None])[:, 0, 0]
                for m, b in x.blocks.items()}
        return AlgebraElement(COMPLEX, x.shape.scatter(vals))
    return AlgebraElement(QUATERNION, _hamilton(x.blocks[1], _quat_conj(y.blocks[1])))


def _common_scale(blocks: dict[int, np.ndarray]) -> tuple[int, dict[int, np.ndarray]]:
    """(e, {m: block * 2^-e}), e the exponent rule (``_frexp_exponent``) over
    every block at once; not the largest per-block exponent, which an
    all-zero block would raise to 0.  Exact unless it underflows."""
    e = int(_frexp_exponent(np.concatenate([b.reshape(-1) for b in blocks.values()])))
    return e, {m: _ldexp(b, -e) for m, b in blocks.items()}


def module_norm(x: ModuleVector) -> float:
    """Largest Euclidean fiber length; equals the algebra norm of |x|.

    It is taken at the exact common scale 2^-e (``_common_scale``), so it
    overflows or underflows only where the norm itself does.
    """
    e, blocks = _common_scale(x.blocks)
    return float(_ldexp(max(np.linalg.norm(b, axis=-1).max() for b in blocks.values()), e))


@_refuses_overflow
def left_action(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Fiberwise left multiplication of the vector by an algebra element."""
    if a.kind != x.shape.kind:
        raise ShapeMismatch(f"mixed scalar kinds {a.kind!r} and {x.shape.kind!r}")
    if a.fiber_count != x.shape.fiber_count:
        raise ShapeMismatch(
            f"fiber counts differ: {a.fiber_count} vs {x.shape.fiber_count}"
        )
    if x.shape.kind == COMPLEX:
        scalars = x.shape.gather(a.fibers)
        return ModuleVector(x.shape, {m: scalars[m][:, None] * b for m, b in x.blocks.items()})
    return ModuleVector(x.shape, {1: _hamilton(a.fibers, x.blocks[1])})
