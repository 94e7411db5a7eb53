"""Weighted fusion frames: verification, bounds, reconstruction, multipliers.

A frame is a finite sequence of complemented submodules paired with central,
strictly positive weights.  Everything reduces to the per-fiber Hermitian
matrices S_k = sum_n w_{n,k}^2 P_{n,k}: the family is a frame exactly when
every S_k is bounded away from zero, the optimal algebra bounds are the
fiberwise square roots of the spectral extremes of S_k, and inverting the
S_k yields exact reconstruction.

``frame_operator`` is the map x -> sum_n w_n^2 P_n(x); ``synthesis`` sends
x to the sequence (w_n P_n(x)) and ``synthesis_adjoint`` maps a sequence
back into the module.  Composing the adjoint with the synthesis recovers
the frame operator, which is what makes the reconstruction exact.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebra import _KINDS, COMPLEX, QUATERNION, AlgebraElement, _default_tol, _ldexp, alg_norm
from .errors import InvalidWeight, LengthMismatch, NotAFrame, ShapeMismatch
from .hilbert_module import FiberBlocks, ModuleShape, ModuleVector, _apply_fibers, _common_scale
from .hilbert_module import _hermitian, inner_product, left_action, module_norm
from .submodule import Submodule, _fiber_flags, block_submodule, project
from .tolerance import FRAME_TOL, ORDER_TOL, TIGHT_TOL


@dataclass(frozen=True, slots=True, eq=False)
class WeightSequence:
    """Central, strictly positive weights, one per submodule, stored once as
    the read-only (M, N) matrix of their real fibers.  The weight rule: the
    matrix is finite and each row's smallest entry exceeds ORDER_TOL *
    max(1, its largest |entry|): the one tolerance floored at 1 (README,
    "Numerical conventions")."""

    kind: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2 or 0 in matrix.shape:
            raise ShapeMismatch("weights must form a nonempty (M, N) matrix")
        if not np.all(np.isfinite(matrix)):
            raise InvalidWeight("weights must be finite")
        if not np.all(matrix.min(axis=1) > ORDER_TOL * np.maximum(1.0, np.abs(matrix).max(axis=1))):
            raise InvalidWeight("weights must be strictly positive")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def fiber_count(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, n: int) -> AlgebraElement:
        """Weight n, lifted from its row; iteration lifts the rows in turn."""
        return AlgebraElement.from_real(self.matrix[n], self.kind)

    @classmethod
    def from_matrix(cls, kind: str, values) -> "WeightSequence":
        """Rows of positive reals, one row per submodule."""
        return cls(kind, values)

    @classmethod
    def from_elements(cls, elements: Sequence[AlgebraElement]) -> "WeightSequence":
        """Self-adjoint (quaternion: central) elements of one kind and fiber count."""
        if len({(w.kind, w.fiber_count) for w in elements}) != 1:
            raise ShapeMismatch("need weights of one kind and fiber count")
        if not all(np.max(w.imag_magnitudes()) <= _default_tol(w) for w in elements):
            raise InvalidWeight("weights must be self-adjoint")
        return cls(elements[0].kind, [w.real_parts() for w in elements])

    def q_weights(self) -> list[float]:
        """The squared algebra norms of the weights, used to weight ecarts."""
        try:
            return [w**2 for w in self.matrix.max(axis=1).tolist()]
        except OverflowError:
            raise InvalidWeight("squared weight norms must be finite") from None


@dataclass(frozen=True, slots=True, eq=False)
class FrameOperatorFibers(FiberBlocks):
    """Per-fiber Hermitian PSD matrices of the frame operator."""

    fibers: InitVar[object] = field()  # see ModuleVector

    def __post_init__(self, fibers) -> None:
        self._store(fibers, matrix=True)

    def apply(self, x: ModuleVector) -> ModuleVector:
        return _apply_fibers(self, x)


def _assemble_operator(
    shape: ModuleShape, submodules: Sequence[Submodule], wmatrix: np.ndarray
) -> FrameOperatorFibers:
    """S = sum_n w_n^2 P_n, summed submodule by submodule over whole blocks
    (no stacked copy of all projections is made); an overflow raises InvalidWeight."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = shape.gather((wmatrix**2).T)
        blocks = {}
        for m, w2 in squares.items():
            acc = sum(w2[:, n, None, None] * sub.blocks[m] for n, sub in enumerate(submodules))
            blocks[m] = _hermitian(acc)
    if not all(np.isfinite(b).all() for b in blocks.values()):
        raise InvalidWeight("the frame operator overflows: the weights are too large")
    return FrameOperatorFibers(shape, blocks)


@dataclass(frozen=True, slots=True)
class TightnessResult:
    tight: bool
    constant: AlgebraElement | None
    parseval: bool


@dataclass(frozen=True, slots=True)
class FrameBounds:
    """Optimal algebra bounds, the scalar constants they induce and the tightness they decide."""

    is_frame: bool
    lower: AlgebraElement
    upper: AlgebraElement
    scalar_lower: float
    scalar_upper: float
    per_fiber: tuple[tuple[float, float], ...]
    tightness: TightnessResult


@dataclass(frozen=True, slots=True, eq=False)
class WeightedFrame:
    """Submodules with weights; the frame operator, its optimal bounds and
    tightness are decided once, at construction.  The family is a frame when
    each fiber's smallest eigenvalue exceeds FRAME_TOL times its largest, and
    tight when each fiber's spread is at most TIGHT_TOL times its largest.  An
    operator that overflows is refused (InvalidWeight)."""

    submodules: tuple[Submodule, ...]
    weights: WeightSequence
    shape: ModuleShape = field(init=False)
    operator_fibers: FrameOperatorFibers = field(init=False, repr=False)
    _bounds: FrameBounds = field(init=False, repr=False)

    def __post_init__(self) -> None:
        submodules = tuple(self.submodules)
        if not submodules:
            raise LengthMismatch("a frame needs at least one submodule")
        if not isinstance(self.weights, WeightSequence):
            raise TypeError("weights must be a WeightSequence")
        if len(self.weights) != len(submodules):
            raise LengthMismatch(
                f"{len(submodules)} submodules but {len(self.weights)} weights"
            )
        shape = submodules[0].shape
        for sub in submodules:
            if sub.shape != shape:
                raise ShapeMismatch("submodules must share one shape")
        if self.weights.kind != shape.kind or self.weights.fiber_count != shape.fiber_count:
            raise ShapeMismatch("weights do not match the module shape")
        operator = _assemble_operator(shape, submodules, self.weights.matrix)
        eigvals = {m: np.linalg.eigvalsh(s) for m, s in operator.blocks.items()}
        extremes = shape.scatter({m: lam[:, [0, -1]] for m, lam in eigvals.items()})
        if not np.isfinite(extremes).all():
            raise InvalidWeight("the frame operator's eigenvalues overflow")
        lam_min, lam_max = extremes.T
        is_frame = bool(np.all(lam_min > FRAME_TOL * lam_max))
        tight = TightnessResult(tight=False, constant=None, parseval=False)
        if is_frame and np.all(lam_max - lam_min <= TIGHT_TOL * lam_max):
            levels = np.sqrt((lam_min + lam_max) / 2.0)
            parseval = bool(np.max(np.abs(levels - 1.0)) <= TIGHT_TOL)
            tight = TightnessResult(True, AlgebraElement.from_real(levels, shape.kind), parseval)
        bounds = FrameBounds(
            is_frame=is_frame,
            lower=AlgebraElement.from_real(np.sqrt(np.clip(lam_min, 0.0, None)), shape.kind),
            upper=AlgebraElement.from_real(np.sqrt(np.clip(lam_max, 0.0, None)), shape.kind),
            scalar_lower=max(float(np.min(lam_min)), 0.0),
            scalar_upper=float(np.max(lam_max)),
            per_fiber=tuple(map(tuple, extremes.tolist())),
            tightness=tight,
        )
        object.__setattr__(self, "submodules", submodules)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "operator_fibers", operator)
        object.__setattr__(self, "_bounds", bounds)

    def __len__(self) -> int:
        return len(self.submodules)


@dataclass(frozen=True, slots=True, eq=False)
class ModuleSequence:
    """A finite sequence of module vectors sharing one shape."""

    entries: tuple[ModuleVector, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise LengthMismatch("a module sequence needs at least one entry")
        shape = entries[0].shape
        for e in entries:
            if e.shape != shape:
                raise ShapeMismatch("sequence entries must share one shape")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, n: int) -> ModuleVector:
        return self.entries[n]

    def gram(self) -> AlgebraElement:
        """sum_n <y_n, y_n> as an algebra element."""
        return seq_inner(self, self)

    def norm(self) -> float:
        return float(np.sqrt(alg_norm(self.gram())))


def seq_inner(ys: ModuleSequence, zs: ModuleSequence) -> AlgebraElement:
    """Algebra-valued inner product sum_n <y_n, z_n> of two sequences."""
    if len(ys) != len(zs):
        raise LengthMismatch(f"sequence lengths differ: {len(ys)} vs {len(zs)}")
    acc = inner_product(ys[0], zs[0])
    for y, z in zip(ys.entries[1:], zs.entries[1:]):
        acc = acc + inner_product(y, z)
    return acc


@dataclass(frozen=True, slots=True)
class MultiplierResult:
    member: bool
    tight_constant: AlgebraElement | None
    note: str


@dataclass(frozen=True, slots=True)
class ReconstructionResult:
    vector: ModuleVector
    rel_error: float


def frame_operator(frame: WeightedFrame) -> FrameOperatorFibers:
    """The per-fiber matrices of x -> sum_n w_n^2 P_n(x)."""
    return frame.operator_fibers


def frame_bounds(frame: WeightedFrame) -> FrameBounds:
    """Optimal bounds from the per-fiber spectral extremes of the frame
    operator, decided when the frame was built (see ``WeightedFrame``)."""
    return frame._bounds


def synthesis(frame: WeightedFrame, x: ModuleVector) -> ModuleSequence:
    """The sequence (w_n P_n(x)), one entry per submodule."""
    return ModuleSequence(
        [left_action(w, project(sub, x)) for sub, w in zip(frame.submodules, frame.weights)]
    )


def synthesis_adjoint(frame: WeightedFrame, ys: ModuleSequence) -> ModuleVector:
    """sum_n w_n P_n(y_n); the adjoint of ``synthesis``."""
    if len(ys) != len(frame):
        raise LengthMismatch(f"{len(frame)} submodules but {len(ys)} sequence entries")
    acc = ModuleVector.zeros(frame.shape)
    for sub, w, y in zip(frame.submodules, frame.weights, ys):
        acc = acc + left_action(w, project(sub, y))
    return acc


def _solve_operator(frame: WeightedFrame, x: ModuleVector) -> ModuleVector:
    """S^-1 x by one batched LU solve per fiber dimension."""
    ops = frame.operator_fibers.blocks
    if frame.shape.kind == QUATERNION:
        return ModuleVector(x.shape, {1: x.blocks[1] / ops[1][:, 0]})
    blocks = {m: np.linalg.solve(s, x.blocks[m][:, :, None])[:, :, 0] for m, s in ops.items()}
    return ModuleVector(x.shape, blocks)


def reconstruct(frame: WeightedFrame, x: ModuleVector) -> ReconstructionResult:
    """Exact reconstruction x = sum_n w_n^2 P_n(S^-1 x).

    Solves the frame operator directly (LU, batched over the fibers of each
    dimension), then re-applies the weighted projection sum and reports the
    relative error.  Both steps run on x at its common scale 2^-e
    (``_common_scale``), and the result is scaled back by 2^e; that is
    exact, so only over- or underflow of the result itself loses precision.
    """
    x._check_same_shape(frame)
    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise NotAFrame("cannot reconstruct: the family is not a frame")
    # At the common scale 2^-e subnormal input keeps full precision, and
    # rel_error is measured even where the norm of x exceeds the float range.
    e, blocks = _common_scale(x.blocks)
    xs = ModuleVector(x.shape, blocks)
    mid = _solve_operator(frame, xs)
    acc = ModuleVector.zeros(frame.shape)
    for sub, w in zip(frame.submodules, frame.weights):
        acc = acc + left_action(w * w, project(sub, mid))
    denom = module_norm(xs)
    rel = module_norm(acc - xs) / denom if denom > 0 else 0.0
    back = ModuleVector(acc.shape, {m: _ldexp(b, e) for m, b in acc.blocks.items()})
    return ReconstructionResult(vector=back, rel_error=float(rel))


def tightness(frame: WeightedFrame) -> TightnessResult:
    """Whether every fiber of the frame operator is a scalar multiple of the
    identity, and whether that scalar is 1 (Parseval): decided with the bounds."""
    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise NotAFrame("tightness is only defined for frames")
    return bounds.tightness


def assemble_block_frame(
    kind: str, index_sets: Sequence[Iterable[int]], weights
) -> WeightedFrame:
    """Build the coordinate-block frame for the given 1-based index sets and
    an (M, N) matrix of positive weights."""
    sequence = WeightSequence(kind, weights)
    shape = ModuleShape(kind, (1,) * sequence.fiber_count)
    subs = [block_submodule(shape, idx) for idx in index_sets]
    return WeightedFrame(subs, sequence)


def block_multiplier_check(
    index_sets: Sequence[Iterable[int]], weights, kind: str = COMPLEX
) -> MultiplierResult:
    """Closed-form multiplier test for coordinate-block families.

    At finite truncation the weight matrix is a multiplier exactly when
    every fiber is covered by some index set (a repeated index counts once);
    the family is then tight with constant sqrt(sum_n a_{n,k}^2 d_{n,k}) per
    fiber, equal to the assembled frame's bounds exactly.  The summability
    conditions that appear for infinite families hold vacuously here.
    """
    matrix = WeightSequence(kind, weights).matrix
    if len(matrix) != len(index_sets):
        raise LengthMismatch("need one weight row per index set")
    sums = sum(_fiber_flags(matrix.shape[1], idx) * w**2 for idx, w in zip(index_sets, matrix))
    member = bool(np.all(sums > 0))
    constant = AlgebraElement.from_real(np.sqrt(sums), kind) if member else None
    return MultiplierResult(
        member=member, tight_constant=constant, note="finite-truncation: auto-satisfied"
    )


def cone_add(frame: WeightedFrame, other: WeightSequence) -> WeightedFrame:
    """The frame over the same submodules with weights added entrywise.

    Both inputs must verify as frames; the sum then does as well (the
    multiplier set of a submodule sequence is a convex cone).  ``other`` is
    checked as the weights of a frame over the same submodules.
    """
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("first summand is not a frame")
    second = WeightedFrame(frame.submodules, other)
    if not frame_bounds(second).is_frame:
        raise NotAFrame("second summand is not a frame")
    summed = WeightSequence(other.kind, frame.weights.matrix + other.matrix)
    return WeightedFrame(frame.submodules, summed)


def cone_scale(frame: WeightedFrame, factor: float) -> WeightedFrame:
    """Positive rescaling of the weights; bounds scale by the same factor."""
    if not frame_bounds(frame).is_frame:
        raise NotAFrame("input is not a frame")
    if factor <= 0:
        raise ValueError("rescaling factor must be positive")
    with np.errstate(over="ignore"):  # an overflowed weight is refused as not finite
        scaled = frame.weights.matrix * factor
    return WeightedFrame(frame.submodules, WeightSequence(frame.weights.kind, scaled))
