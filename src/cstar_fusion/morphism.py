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

from .algebra import COMPLEX, AlgebraElement, _hamilton, _quat_conj
from .errors import NotAFrame, ShapeMismatch
from .frame import WeightedFrame, WeightSequence, frame_bounds
from .hilbert_module import FiberBlocks, ModuleShape, ModuleVector, _adjoint
from .submodule import Submodule
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
            raise ShapeMismatch("need one scale per fiber")
        if not np.all((scale_arr > 0) & (scale_arr < np.inf)):
            raise ValueError("scales must be positive and finite")
        self._store(self.rotations, matrix=shape.kind == COMPLEX)
        if shape.kind == COMPLEX:
            # Spectral norm of the Hermitian U^H U - I: its largest |eigenvalue|.
            gram = {m: _adjoint(u) @ u - np.eye(m) for m, u in self.blocks.items()}
            extremes = {m: np.abs(np.linalg.eigvalsh(g)).max(-1) for m, g in gram.items()}
            defects = shape.scatter(extremes)
        else:
            defects = np.abs(np.linalg.norm(self.blocks[1], axis=-1) - 1.0)
        k = int(np.argmax(defects))
        if not defects[k] <= UNITARY_TOL:
            raise ValueError(f"fiber {k} rotation is not unitary (defect {defects[k]:.2e})")
        scale_arr.setflags(write=False)
        object.__setattr__(self, "scales", scale_arr)
        object.__setattr__(self, "rotations", self.fibers)

    @classmethod
    def identity(cls, shape: ModuleShape) -> "OrthoMap":
        return cls(shape, np.ones(shape.fiber_count), identity_rotations(shape))

    def apply(self, x: ModuleVector) -> ModuleVector:
        self._check_same_shape(x)
        scales = self.shape.gather(self.scales)
        if self.shape.kind == COMPLEX:
            blocks = {m: (u @ x.blocks[m][:, :, None])[:, :, 0] for m, u in self.blocks.items()}
        else:
            blocks = {1: _hamilton(x.blocks[1], self.blocks[1])}
        return ModuleVector(x.shape, {m: scales[m][:, None] * b for m, b in blocks.items()})

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
    if mapping.shape != frame.shape:
        raise ShapeMismatch(f"module shapes differ: {mapping.shape} vs {frame.shape}")
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("transport requires a frame")
    new_subs = []
    for sub in frame.submodules:
        blocks = sub.blocks
        if frame.shape.kind == COMPLEX:
            blocks = {}
            for m, u in mapping.blocks.items():
                moved = u @ sub.blocks[m] @ _adjoint(u)
                blocks[m] = (moved + _adjoint(moved)) / 2.0
        new_subs.append(Submodule(frame.shape, blocks))
    new_weights = WeightSequence(frame.shape.kind, frame.weights.matrix * mapping.scales)
    return WeightedFrame(new_subs, new_weights)
