"""Orthogonally complemented submodules as per-fiber orthogonal projections.

Complex fibers carry an arbitrary Hermitian idempotent matrix.  Quaternion
fibers are one-dimensional, so a submodule there selects each line or not
(the only left submodules of a quaternion line are the zero space and the
whole line); its projection is stored as the complex image p I_2 of the
selector bit p, like every quaternion fiber operator.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebra import COMPLEX, _frexp_exponent, _ldexp, _require_finite
from .errors import IndexOutOfRange, QuaternionUnsupported, ShapeMismatch
from .hilbert_module import FiberBlocks, ModuleShape, ModuleVector, _adjoint, _apply_fibers
from .hilbert_module import _hermitian, _spectral_defects
from .tolerance import MGS_DROP, PROJECTION_TOL


@dataclass(frozen=True, slots=True, eq=False)
class Submodule(FiberBlocks):
    """Per-fiber projection data, finite (else NotFinite); immutable.

    Complex fiber k stores an (m_k, m_k) complex matrix; a quaternion fiber
    stores the complex 2x2 matrix p I_2, p its selector bit.
    """

    fibers: InitVar[object] = field()  # see ModuleVector

    def __post_init__(self, fibers) -> None:
        self._store(fibers, matrix=True)
        for block in self.blocks.values():
            _require_finite(block, "projection entries")


def _padded(sets, idx, m: int) -> np.ndarray:
    """The spanning sets of fibers ``idx`` as one (count, R, m) stack; ragged
    sets are padded with zero vectors, which Gram-Schmidt drops."""
    if isinstance(sets, np.ndarray) and sets.ndim == 3 and sets.shape[2] == m:
        return sets[idx].astype(complex)
    width = max((len(sets[k]) for k in idx), default=0)
    out = np.zeros((len(idx), width, m), dtype=complex)
    for j, k in enumerate(idx):
        for r, v in enumerate(sets[k]):
            v = np.asarray(v, dtype=complex).reshape(-1)
            if v.shape[0] != m:
                message = f"fiber {k} span vector has length {v.shape[0]}, expected {m}"
                raise ShapeMismatch(message, fiber=k)
            out[j, r] = v
    return out


def _span_projections(spans: np.ndarray) -> np.ndarray:
    """Projections onto the spans of a (count, R, m) stack of vectors.

    Modified Gram-Schmidt, two passes, run on all fibers at once: a vector
    whose remainder is at most MGS_DROP times the largest input norm of its
    fiber (or zero) is dropped, and a dropped vector's zero row leaves the
    later remainders unchanged.  Non-finite vectors raise NotFinite, since
    the drop test would silently drop a NaN remainder.
    """
    _require_finite(spans, "span vectors")
    # Scaling a fiber's vectors by a power of two is exact and keeps their
    # span; after it no norm below overflows or underflows.
    spans = _ldexp(spans, -_frexp_exponent(spans, (1, 2))[:, None, None])
    drop = MGS_DROP * np.linalg.norm(spans, axis=-1).max(axis=-1, initial=0.0)
    basis = np.zeros_like(spans)
    for r in range(spans.shape[1]):
        u = spans[:, r]
        for _ in range(2):
            for q in np.moveaxis(basis[:, :r], 1, 0):
                u = u - (np.conj(q)[:, None, :] @ u[:, :, None])[:, 0] * q
        norm = np.linalg.norm(u, axis=-1)
        keep = (norm > drop) & (norm > 0.0)
        basis[:, r] = np.where(keep[:, None], u / np.where(keep, norm, 1.0)[:, None], 0.0)
    return np.swapaxes(basis, -1, -2) @ np.conj(basis)


def _fiber_flags(n: int, index_set: Iterable[int]) -> np.ndarray:
    """(n,) flags of the fibers a 1-based index set names; repeats count once."""
    flags = np.zeros(n, dtype=bool)
    for i in map(int, index_set):
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"fiber index {i} outside 1..{n}")
        flags[i - 1] = True
    return flags


def block_submodule(shape: ModuleShape, index_set: Iterable[int]) -> Submodule:
    """Coordinate submodule: identity on the fibers named by the 1-based
    index set, zero elsewhere.  Valid for both scalar kinds."""
    flags = shape.gather(_fiber_flags(shape.fiber_count, index_set)[:, None, None])
    return Submodule(shape, {m: np.eye(w) * flags[m] for m, w in shape.widths.items()})


def span_submodule(shape: ModuleShape, fiber_spanning_sets: Sequence[Sequence]) -> Submodule:
    """Submodule spanned fiberwise by the given vectors (complex kind only).

    ``fiber_spanning_sets`` holds one set of vectors per fiber, or one
    (fibers, R, m) array when every fiber has dimension m.
    """
    if shape.kind != COMPLEX:
        raise QuaternionUnsupported("span submodules exist only for complex fibers")
    if len(fiber_spanning_sets) != shape.fiber_count:
        raise ShapeMismatch(
            f"expected spans for {shape.fiber_count} fibers, got {len(fiber_spanning_sets)}"
        )
    return Submodule(shape, {
        m: _span_projections(_padded(fiber_spanning_sets, idx, m))
        for m, idx in shape.groups.items()
    })


def project(sub: Submodule, x: ModuleVector) -> ModuleVector:
    """Apply the per-fiber orthogonal projection to a module vector."""
    return _apply_fibers(sub, x)


def complement(sub: Submodule) -> Submodule:
    """The orthogonal complement; per fiber the projection I - P."""
    return Submodule(sub.shape, {m: np.eye(p.shape[-1]) - p for m, p in sub.blocks.items()})


def _conjugated(sub: Submodule, unitaries: dict[int, np.ndarray]) -> Submodule:
    """``sub`` with its fibers of each dimension m in ``unitaries`` moved to
    the Hermitian part of U P U^H, U the (count, w, w) stack unitaries[m]."""
    moved = {m: _hermitian(u @ sub.blocks[m] @ _adjoint(u)) for m, u in unitaries.items()}
    return Submodule(sub.shape, {**sub.blocks, **moved})


def validate_projection(sub: Submodule, tol: float = PROJECTION_TOL) -> bool:
    """True iff every fiber matrix is Hermitian and idempotent within tol
    (spectral norm, ``_spectral_defects``); a product that overflows fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        defects = [d for p in sub.blocks.values() for d in (p - _adjoint(p), p @ p - p)]
    return all(np.all(_spectral_defects(d, tol) <= tol) for d in defects)
