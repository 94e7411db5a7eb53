"""Orthogonality-preserving bijections and frame transport.

In the fiberwise model every bounded bijective module map that preserves
orthogonality acts on fiber k as a positive scale c_k times an isometry:
a unitary matrix for complex fibers, or multiplication by a unit quaternion
for quaternion fibers.  The inner product then transforms as
<Tx, Ty> = nu <x, y> with nu = (c_k^2), a central strictly positive element.

Quaternion isometries multiply from the right: right factors commute with
the left algebra action, which is what makes the map module-linear and the
nu identity hold; a left factor would do neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import QUATERNION, AlgebraElement, _lengths, _refuses_overflow, quaternion_block
from .errors import InvalidMap, NotAFrame, ShapeMismatch
from .frame import WeightedFrame, WeightSequence, frame_bounds
from .hilbert_module import FiberBlocks, ModuleShape, ModuleVector, _adjoint, _apply_fibers
from .hilbert_module import _spectral_defects, left_action
from .submodule import _conjugated
from .tolerance import UNITARY_TOL


def identity_rotations(shape: ModuleShape) -> dict[int, np.ndarray]:
    """Identity rotation blocks, one unit matrix per fiber."""
    return {m: np.tile(np.eye(w), (len(shape.groups[m]), 1, 1)) for m, w in shape.widths.items()}


@dataclass(frozen=True, slots=True, eq=False)
class OrthoMap(FiberBlocks):
    """Per-fiber positive scale and isometry; immutable and invertible.

    ``blocks`` holds one complex matrix per fiber: the unitary, or chi(u)^T
    for a unit quaternion u.  ``rotations`` holds read-only per-fiber views
    of the isometries: the unitary matrices, or the unit rows (w, x, y, z).
    Quaternion rotations are given as those rows, or as a dict of blocks,
    each read by its first column, u's pair (w + xi, y + zi); a row's
    defect is | |u| - 1 |, a unitary's ||U^H U - I||_2.
    """

    scales: np.ndarray
    rotations: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        shape = self.shape
        scale_arr = np.array(self.scales, dtype=float).reshape(-1)
        if scale_arr.shape[0] != shape.fiber_count:
            raise ShapeMismatch("need one scale per fiber", "scales")
        if not np.all((scale_arr > 0) & (scale_arr < np.inf)):
            raise InvalidMap("scales must be positive and finite", "scales")
        rotations, rows = self.rotations, None
        try:
            if shape.kind == QUATERNION:  # unit rows, or chi(u)^T read by its first column
                self._store(rotations, matrix=isinstance(rotations, dict))
                given = self.blocks[1]
                rows = np.ascontiguousarray(given[:, :, 0] if given.ndim > 2 else given).view(float)
                rows.setflags(write=False)
                defects = np.abs(_lengths(rows) - 1.0)
                rotations = {1: np.swapaxes(quaternion_block(rows), 1, 2)}
            self._store(rotations, matrix=True)
        except ShapeMismatch as exc:
            exc.key = "rotations"
            raise
        if rows is None:
            with np.errstate(over="ignore", invalid="ignore"):
                gram = {m: _adjoint(u) @ u - np.eye(m) for m, u in self.blocks.items()}
            defects = shape.scatter({m: _spectral_defects(g, UNITARY_TOL) for m, g in gram.items()})
        k = int(np.argmax(defects))
        if not defects[k] <= UNITARY_TOL:
            message = f"fiber {k} rotation is not unitary (defect {defects[k]:.2e})"
            raise InvalidMap(message, "rotations", k)
        scale_arr.setflags(write=False)
        object.__setattr__(self, "scales", scale_arr)
        object.__setattr__(self, "rotations", self.fibers if rows is None else tuple(rows))

    @classmethod
    def identity(cls, shape: ModuleShape) -> "OrthoMap":
        return cls(shape, np.ones(shape.fiber_count), identity_rotations(shape))

    @_refuses_overflow
    def apply(self, x: ModuleVector) -> ModuleVector:
        scales = AlgebraElement.from_real(self.scales, self.shape.kind)
        return left_action(scales, _apply_fibers(self, x))

    @_refuses_overflow  # a reciprocal scale past the float range is refused (InvalidMap)
    def inverse(self) -> "OrthoMap":
        rotations = {m: _adjoint(u) for m, u in self.blocks.items()}
        return OrthoMap(self.shape, 1.0 / self.scales, rotations)

    def nu(self) -> AlgebraElement:
        """The central strictly positive element (c_k^2)."""
        return AlgebraElement.from_real(self.scales**2, self.shape.kind)


def _scalar(p: np.ndarray) -> bool:
    """Whether every fiber of the block is a real multiple of the identity, which
    U (cI) U^H = cI keeps; a span block mostly fails at once, on fiber 0's (0, 1)."""
    if p.shape[-1] > 1 and p[0, 0, 1] != 0:
        return False
    return np.array_equal(p, p[:, :1, :1].real * np.eye(p.shape[-1]))


def transport_frame(mapping: OrthoMap, frame: WeightedFrame) -> WeightedFrame:
    """Push a frame through the map.

    The image submodules carry the conjugated projections R P R^H (the
    scale cancels there); the map's energy scale is carried by the weights,
    which pick up the factor nu^(1/2) = (c_k), so the transported frame
    verifies with optimal bounds exactly nu^(1/2) times the originals.
    A block of real multiples of the identity is kept as it is (``_scalar``).
    """
    mapping._check_same_shape(frame)
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("transport requires a frame")
    new_subs = [
        _conjugated(sub, {m: u for m, u in mapping.blocks.items() if not _scalar(sub.blocks[m])})
        for sub in frame.submodules
    ]
    with np.errstate(over="ignore"):  # an overflowed weight is refused as not finite
        new_weights = frame.weights.matrix * mapping.scales
    return WeightedFrame(new_subs, WeightSequence(frame.shape.kind, new_weights))
