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

from .algebra import COMPLEX, AlgebraElement, _hamilton, _lengths, _quat_conj, _refuses_overflow
from .errors import InvalidMap, NotAFrame, ShapeMismatch
from .frame import WeightedFrame, WeightSequence, frame_bounds
from .hilbert_module import FiberBlocks, ModuleShape, ModuleVector, _adjoint, _spectral_defects
from .submodule import _conjugated
from .tolerance import UNITARY_TOL


def identity_rotations(shape: ModuleShape) -> dict[int, np.ndarray]:
    """Identity rotation blocks: unit matrices, or the unit quaternion rows."""
    if shape.kind == COMPLEX:
        return {m: np.tile(np.eye(m), (len(idx), 1, 1)) for m, idx in shape.groups.items()}
    return {1: np.tile([1.0, 0.0, 0.0, 0.0], (shape.fiber_count, 1))}


@dataclass(frozen=True, slots=True, eq=False)
class OrthoMap(FiberBlocks):
    """Per-fiber positive scale and isometry; immutable and invertible.

    ``rotations`` holds read-only per-fiber views into ``blocks``: unitary
    matrices, or unit quaternion rows (w, x, y, z).
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
        try:
            self._store(self.rotations, matrix=shape.kind == COMPLEX)
        except ShapeMismatch as exc:
            exc.key = "rotations"
            raise
        if shape.kind == COMPLEX:
            with np.errstate(over="ignore", invalid="ignore"):
                gram = {m: _adjoint(u) @ u - np.eye(m) for m, u in self.blocks.items()}
            defects = shape.scatter({m: _spectral_defects(g, UNITARY_TOL) for m, g in gram.items()})
        else:
            defects = np.abs(_lengths(self.blocks[1]) - 1.0)
        k = int(np.argmax(defects))
        if not defects[k] <= UNITARY_TOL:
            message = f"fiber {k} rotation is not unitary (defect {defects[k]:.2e})"
            raise InvalidMap(message, "rotations", k)
        scale_arr.setflags(write=False)
        object.__setattr__(self, "scales", scale_arr)
        object.__setattr__(self, "rotations", self.fibers)

    @classmethod
    def identity(cls, shape: ModuleShape) -> "OrthoMap":
        return cls(shape, np.ones(shape.fiber_count), identity_rotations(shape))

    @_refuses_overflow
    def apply(self, x: ModuleVector) -> ModuleVector:
        self._check_same_shape(x)
        scales = self.shape.gather(self.scales)
        if self.shape.kind == COMPLEX:
            blocks = {m: (u @ x.blocks[m][:, :, None])[:, :, 0] for m, u in self.blocks.items()}
        else:
            blocks = {1: _hamilton(x.blocks[1], self.blocks[1])}
        return ModuleVector(x.shape, {m: scales[m][:, None] * b for m, b in blocks.items()})

    @_refuses_overflow  # a reciprocal scale past the float range is refused (InvalidMap)
    def inverse(self) -> "OrthoMap":
        if self.shape.kind == COMPLEX:
            rotations = {m: _adjoint(u) for m, u in self.blocks.items()}
        else:
            rotations = {1: _quat_conj(self.blocks[1])}
        return OrthoMap(self.shape, 1.0 / self.scales, rotations)

    def nu(self) -> AlgebraElement:
        """The central strictly positive element (c_k^2)."""
        return AlgebraElement.from_real(self.scales**2, self.shape.kind)


def transport_frame(mapping: OrthoMap, frame: WeightedFrame) -> WeightedFrame:
    """Push a frame through the map.

    The image submodules carry the conjugated projections R P R^H (the
    scale cancels there); the map's energy scale is carried by the weights,
    which pick up the factor nu^(1/2) = (c_k), so the transported frame
    verifies with optimal bounds exactly nu^(1/2) times the originals.
    """
    mapping._check_same_shape(frame)
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("transport requires a frame")
    unitaries = mapping.blocks if frame.shape.kind == COMPLEX else {}
    new_subs = [_conjugated(sub, unitaries) for sub in frame.submodules]
    with np.errstate(over="ignore"):  # an overflowed weight is refused as not finite
        new_weights = frame.weights.matrix * mapping.scales
    return WeightedFrame(new_subs, WeightSequence(frame.shape.kind, new_weights))
