"""Projection distances, subspace angles and frame perturbation criteria.

The distance between two complemented submodules is the largest fiberwise
spectral norm of the projection difference; it never exceeds 1, and its
arcsine is the angle between the submodules.  Sequences of submodules are
compared by a weighted root-sum-square ecart.  A candidate family whose
ecart from a frame's submodules stays strictly below the frame's smallest
lower-bound fiber (the reciprocal norm of the inverted lower bound) is
itself a frame, with scalar bounds predictable from the ecart.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import alg_norm
from .errors import LengthMismatch, NotAFrame, ShapeMismatch
from .frame import WeightedFrame, frame_bounds
from .hilbert_module import _adjoint
from .submodule import Submodule
from .tolerance import SNAP_TO_ONE

_LOW32 = np.uint64(0xFFFFFFFF)

_log = logging.getLogger(__name__)


def proj_distance(first: Submodule, second: Submodule) -> float:
    """Largest fiberwise spectral norm of the projection difference.

    Always within [0, 1] for valid projections; values within eigensolver
    roundoff of the endpoints snap to them, so orthogonal pairs report
    exactly 1 (arcsin is infinitely steep there, and the snap keeps the
    angle of an orthogonal pair at exactly pi/2).
    """
    first._check_same_shape(second)
    worst = 0.0
    for m, p in first.blocks.items():
        diff = p - second.blocks[m]
        diff = (diff + _adjoint(diff)) / 2.0
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(diff)))))
    if worst >= 1.0 - SNAP_TO_ONE:
        return 1.0
    return max(worst, 0.0)


def angle(first: Submodule, second: Submodule) -> float:
    """arcsin of the projection distance, in [0, pi/2].

    Orthogonal nonzero submodules are at angle pi/2, but an angle of pi/2
    does not imply orthogonality.
    """
    return float(np.arcsin(proj_distance(first, second)))


def _root_sum_square(weights: np.ndarray, dists: Sequence[float]) -> float:
    return float(np.sqrt(np.sum(weights * np.asarray(dists) ** 2)))


def ecart(
    first: Sequence[Submodule], second: Sequence[Submodule], weights: Sequence[float]
) -> float:
    """Weighted root-sum-square of pairwise projection distances."""
    if len(first) != len(second) or len(first) != len(weights):
        raise LengthMismatch(
            f"lengths differ: {len(first)}, {len(second)}, {len(weights)} weights"
        )
    w = np.asarray(list(weights), dtype=float)
    if not np.all((w > 0) & (w < np.inf)):
        raise ValueError("ecart weights must be positive and finite")
    return _root_sum_square(w, [proj_distance(u, v) for u, v in zip(first, second)])


def ball_membership(
    center: Sequence[Submodule],
    radius: float,
    candidate: Sequence[Submodule],
    weights: Sequence[float],
) -> bool:
    """Strict open-ball test for the ecart topology."""
    if not radius >= 0:
        raise ValueError("radius must be nonnegative")
    return ecart(center, candidate, weights) < radius


@dataclass(frozen=True, slots=True)
class CriteriaResult:
    """The three sufficient angle conditions; each implies the ecart bound."""

    crit1: bool
    crit2: bool
    crit3: bool | None
    crit1_lhs: float
    crit1_rhs: float
    crit2_lhs: float
    crit2_rhs: float
    crit3_lhs: float | None
    crit3_rhs: float | None


@dataclass(frozen=True, slots=True)
class PerturbReport:
    """Distances, angles, ecart and verdicts for a candidate family."""

    distances: tuple[float, ...]
    angles: tuple[float, ...]
    ecart: float
    threshold: float
    guaranteed: bool
    criteria: CriteriaResult
    predicted_scalar_lower: float
    predicted_scalar_upper: float
    perturbed_is_frame: bool | None
    perturbed_scalar_lower: float | None
    perturbed_scalar_upper: float | None


def _compare(frame: WeightedFrame, candidates: Sequence[Submodule]):
    """The frame's bounds, each pair's projection distance and angle, the
    q-weights and the guarantee threshold; each distance is computed once."""
    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise NotAFrame("the reference family is not a frame")
    if len(candidates) != len(frame):
        raise LengthMismatch(
            f"{len(frame)} submodules but {len(candidates)} candidates"
        )
    for sub in candidates:
        if sub.shape != frame.shape:
            raise ShapeMismatch("candidate shapes do not match the frame")
    dists = tuple(proj_distance(u, v) for u, v in zip(frame.submodules, candidates))
    angles = tuple(float(np.arcsin(d)) for d in dists)
    q_weights = np.asarray(frame.weights.q_weights())
    return bounds, dists, angles, q_weights, float(np.sqrt(bounds.scalar_lower))


def _evaluate_criteria(
    angles: np.ndarray, q_weights: np.ndarray, threshold: float, p: float | None
) -> CriteriaResult:
    wmax = float(np.sqrt(np.max(q_weights)))
    crit1_lhs = float(np.sum(q_weights * angles**2))
    crit1_rhs = threshold**2
    crit2_lhs = float(np.sum(angles**2))
    crit2_rhs = (threshold / wmax) ** 2
    crit3_lhs = crit3_rhs = None
    crit3 = None
    if p is not None:
        if not 1.0 < p < np.inf:
            raise ValueError("the exponent p must lie in (1, inf)")
        power = 2.0 * p / (p - 1.0)
        crit3_lhs = float(np.sum(angles**power))
        q_norm = float(np.sum(q_weights**p) ** (1.0 / p))
        crit3_rhs = float((threshold**2 / q_norm) ** (p / (p - 1.0)))
        crit3 = bool(crit3_lhs < crit3_rhs)
    return CriteriaResult(
        crit1=bool(crit1_lhs < crit1_rhs),
        crit2=bool(crit2_lhs < crit2_rhs),
        crit3=crit3,
        crit1_lhs=crit1_lhs,
        crit1_rhs=crit1_rhs,
        crit2_lhs=crit2_lhs,
        crit2_rhs=crit2_rhs,
        crit3_lhs=crit3_lhs,
        crit3_rhs=crit3_rhs,
    )


def angle_criteria(
    frame: WeightedFrame, candidates: Sequence[Submodule], p: float | None = None
) -> CriteriaResult:
    """Evaluate the three sufficient angle conditions for the candidate
    family; any true one implies the ecart falls below the threshold."""
    _, _, angles, q_weights, threshold = _compare(frame, candidates)
    return _evaluate_criteria(np.asarray(angles), q_weights, threshold, p)


def perturbation_check(
    frame: WeightedFrame, candidates: Sequence[Submodule], p: float = 2.0
) -> PerturbReport:
    """Compare a candidate submodule family against a frame.

    Uses the ecart weighted by the squared weight norms.  The candidate
    family is guaranteed to be a frame when the ecart falls strictly below
    the threshold, the smallest fiber of the optimal lower bound (ties are
    not guaranteed).  In that case the candidate frame is assembled and its
    verified scalar bounds are reported next to the predictions
    (threshold - ecart)^2 and (upper-bound norm + ecart)^2.
    """
    bounds, dists, angles, q_weights, threshold = _compare(frame, candidates)
    ecart_value = _root_sum_square(q_weights, dists)
    guaranteed = bool(ecart_value < threshold)
    upper_norm = alg_norm(bounds.upper)
    criteria = _evaluate_criteria(np.asarray(angles), q_weights, threshold, p)
    perturbed_is_frame = perturbed_lower = perturbed_upper = None
    if guaranteed:
        moved = WeightedFrame(candidates, frame.weights)
        moved_bounds = frame_bounds(moved)
        perturbed_is_frame = moved_bounds.is_frame
        perturbed_lower = moved_bounds.scalar_lower
        perturbed_upper = moved_bounds.scalar_upper
    return PerturbReport(
        distances=dists,
        angles=angles,
        ecart=ecart_value,
        threshold=threshold,
        guaranteed=guaranteed,
        criteria=criteria,
        predicted_scalar_lower=max(threshold - ecart_value, 0.0) ** 2,
        predicted_scalar_upper=(upper_norm + ecart_value) ** 2,
        perturbed_is_frame=perturbed_is_frame,
        perturbed_scalar_lower=perturbed_lower,
        perturbed_scalar_upper=perturbed_upper,
    )


def _loop_draws(dims: Sequence[int], max_angle: float, rng: np.random.Generator):
    """The reference stream: per fiber of dimension m >= 2, a plane from
    ``rng.choice(m, 2, replace=False)`` and an angle from
    ``rng.uniform(0, max_angle)``, drawn fiber by fiber."""
    planes = np.zeros((len(dims), 2), dtype=int)
    thetas = np.zeros(len(dims))
    for k, m in enumerate(dims):
        if m >= 2:
            planes[k] = rng.choice(m, size=2, replace=False)
            thetas[k] = rng.uniform(0.0, max_angle)
    return planes, thetas


def _lemire(u: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw in [0, r) from the 32-bit words ``u``: the
    values, and where numpy would reject the word and draw again."""
    prod = u * r
    return prod >> 32, (prod & _LOW32) < (2**32 - r) % r


def _vector_draws(dims: np.ndarray, max_angle: float, rng: np.random.Generator):
    """``_loop_draws`` decoded from raw 64-bit words in one pass, or None,
    with the generator left as it was, when only the loop reproduces it.

    Per fiber with m >= 2 the loop makes, in order: Floyd's draw in [0, m-2]
    (none when m = 2), Floyd's draw in [0, m-1], the shuffle's draw in
    [0, 1], and the angle.  Each bounded draw takes a 32-bit half of a word,
    the low half first, and keeps the high half for the next one; the angle
    takes a whole word and leaves that buffer alone.  So the 32-bit draws
    are, in order, the half buffered on entry and then both halves of every
    word that is not an angle word.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    if "has_uint32" not in saved:
        _log.debug("randomly_rotated: per-fiber loop, generator has no 32-bit buffer")
        return None
    planes = np.zeros((len(dims), 2), dtype=int)
    thetas = np.zeros(len(dims))
    moved = np.flatnonzero(dims >= 2)
    if moved.size == 0:
        return planes, thetas
    m = dims[moved].astype(np.uint64)
    wide = m > 2
    buffered = int(saved["has_uint32"])
    ends = np.cumsum(np.where(wide, 3, 2))  # 32-bit draws through each fiber
    angle_at = (ends - buffered + 1) // 2 + np.arange(m.size)
    raw = bitgen.random_raw(int(angle_at[-1]) + 1)
    halves_of = np.ones(raw.size, dtype=bool)
    halves_of[angle_at] = False
    words = raw[halves_of]
    stream = np.column_stack([words & _LOW32, words >> 32]).ravel()
    if buffered:
        stream = np.concatenate([[np.uint64(saved["uinteger"])], stream])
    first, bad_first = _lemire(stream[np.maximum(ends - 3, 0)], m - 1)
    second, bad_second = _lemire(stream[ends - 2], m)
    if np.any(wide & bad_first) or np.any(bad_second):
        bitgen.state = saved
        _log.debug("randomly_rotated: per-fiber loop, a bounded draw was rejected")
        return None
    first = np.where(wide, first, 0)
    second = np.where(second == first, m - 1, second)  # Floyd's collision rule
    swap = (stream[ends - 1] >> 31) == 0  # the shuffle's draw in [0, 1] is 0
    planes[moved] = np.where(swap[:, None], np.column_stack([second, first]),
                             np.column_stack([first, second]))
    # uniform(0, a) is 0.0 + a * next_double, next_double = (word >> 11) / 2**53;
    # the 0.0 + changes nothing, since a is never -0.0 here
    thetas[moved] = max_angle * ((raw[angle_at] >> 11) * (1.0 / 2**53))
    state = bitgen.state
    state["has_uint32"] = stream.size - int(ends[-1])
    state["uinteger"] = int(stream[-1])
    bitgen.state = state
    return planes, thetas


def randomly_rotated(
    submodules: Sequence[Submodule], max_angle: float, rng: np.random.Generator
) -> list[Submodule]:
    """Perturb each submodule by one random Givens rotation per fiber.

    The rotation plane is drawn uniformly and the angle uniformly from
    [0, max_angle]; one-dimensional and quaternion fibers are unchanged.
    The draws are exactly those of ``rng.choice(m, 2, replace=False)``
    followed by ``rng.uniform(0, max_angle)``, submodule by submodule and
    fiber by fiber, and leave ``rng`` in the same state.  They are decoded
    from the generator's raw words in one vectorised pass; the per-fiber
    loop runs instead for generators without a 32-bit buffer (MT19937) and
    when numpy would reject a bounded draw and draw again.
    """
    if not 0.0 <= max_angle <= sys.float_info.max:  # also an int too large for a float
        raise ValueError("max_angle must be finite and nonnegative")
    max_angle = float(max_angle) + 0.0  # uniform(0, -0.0) raises; take -0.0 as +0.0
    dims = [m for sub in submodules for m in sub.shape.dims]
    draws = _vector_draws(np.array(dims, dtype=int), max_angle, rng)
    all_planes, all_thetas = draws if draws is not None else _loop_draws(dims, max_angle, rng)
    moved = []
    start = 0
    for sub in submodules:
        shape = sub.shape
        fibers = slice(start, start + shape.fiber_count)
        start += shape.fiber_count
        planes, thetas = shape.gather(all_planes[fibers]), shape.gather(all_thetas[fibers])
        blocks = dict(sub.blocks)
        for m in blocks.keys() - {1}:
            i, j = planes[m].T
            cos, sin = np.cos(thetas[m]), np.sin(thetas[m])
            # complex, as the product would cast it; the products are unchanged
            giv = np.tile(np.eye(m, dtype=complex), (len(cos), 1, 1))
            rows = np.arange(len(cos))
            giv[rows, i, i] = giv[rows, j, j] = cos
            giv[rows, i, j] = -sin
            giv[rows, j, i] = sin
            rotated = giv @ blocks[m] @ np.swapaxes(giv, -1, -2)
            blocks[m] = (rotated + _adjoint(rotated)) / 2.0
        moved.append(Submodule(shape, blocks))
    return moved
