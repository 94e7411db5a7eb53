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

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import _frexp_exponent, _ldexp, _require_finite, alg_norm
from .errors import InvalidWeight, LengthMismatch, NotAFrame
from .frame import WeightedFrame, frame_bounds
from .hilbert_module import _common_scale, _hermitian
from .submodule import Submodule, _conjugated
from .tolerance import SNAP_TO_ONE


def proj_distance(first: Submodule, second: Submodule) -> float:
    """Largest fiberwise spectral norm of the projection difference.

    Always within [0, 1] for valid projections; values within eigensolver
    roundoff of the endpoints snap to them, so orthogonal pairs report
    exactly 1 (arcsin is infinitely steep there, and the snap keeps the
    angle of an orthogonal pair at exactly pi/2).

    Only fibers that can hold the maximum are eigendecomposed.  For each
    fiber's Hermitian difference D, ||D e_i||_2 <= ||D||_2 <= ||D||_F, so
    the largest column norm over all fibers is a floor under the answer;
    a fiber whose squared Frobenius norm is at most (1 - 1e-8) times the
    squared floor cannot hold the maximum and is dropped.  The norms are
    taken of the differences at one exact common scale 2^-e
    (``_common_scale``), so tiny distances do not underflow.  A difference
    that overflows (no projection has such entries) raises NotFinite.
    ``eigvalsh`` works matrix by matrix, so the distance equals the largest
    |eigenvalue| over every fiber bit for bit.
    """
    first._check_same_shape(second)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = {m: _hermitian(p - second.blocks[m]) for m, p in first.blocks.items()}
    for d in diffs.values():
        _require_finite(d, "projection differences")
    _, scaled = _common_scale(diffs)
    # Squared column norms, taken at the common scale 2^-e.
    columns = {m: (abs(d) ** 2).sum(axis=-2) for m, d in scaled.items()}
    floor = np.max([c.max() for c in columns.values()])
    worst = 0.0
    for m, d in diffs.items():
        # The margin 1e-8 on the squared norms is far above their ~m * eps
        # error and that of eigvalsh, so the computed eigenvalues of a
        # dropped fiber stay below those of the fiber with the largest
        # column.  When every difference is zero no fiber is kept.
        keep = columns[m].sum(axis=-1) > floor * (1.0 - 1e-8)
        if keep.any():
            worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(d[keep])))))
    return 1.0 if worst >= 1.0 - SNAP_TO_ONE else worst


def angle(first: Submodule, second: Submodule) -> float:
    """arcsin of the projection distance, in [0, pi/2].

    Orthogonal nonzero submodules are at angle pi/2, but an angle of pi/2
    does not imply orthogonality.
    """
    return float(np.arcsin(proj_distance(first, second)))


def _root_sum_square(weights: np.ndarray, dists: Sequence[float]) -> float:
    """sqrt(sum_n q_n d_n^2) at the exact scale 4^-k of its largest term (each
    term is finite, as d_n <= 1), so the sum never overflows."""
    terms = weights * np.asarray(dists) ** 2
    k = (_frexp_exponent(terms) + 1) // 2
    return float(_ldexp(np.sqrt(np.sum(_ldexp(terms, -2 * k))), k))


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


def _evaluate_criteria(
    angles: np.ndarray, q_weights: np.ndarray, threshold: float, p: float | None
) -> CriteriaResult:
    wmax = float(np.sqrt(np.max(q_weights)))
    with np.errstate(over="ignore"):  # an overflowed sum is refused by perturbation_check
        crit1_lhs = float(np.sum(q_weights * angles**2))
    crit1_rhs = threshold**2
    crit2_lhs = float(np.sum(angles**2))
    crit2_rhs = (threshold / wmax) ** 2
    crit3_lhs = crit3_rhs = None
    crit3 = None
    if p is not None:
        if not 1.0 < p < np.inf:
            raise ValueError("the exponent p must lie in (1, inf)")
        # The Hoelder conjugate of p; 2 p / (p - 1) would overflow in 2 p.
        conjugate = p / (p - 1.0)
        # q and threshold^2 at one exact scale 2^-e, so q^p does not overflow.
        e = _frexp_exponent(q_weights)
        scaled = _ldexp(q_weights, -e)
        top = scaled.max()
        if top**p >= np.finfo(float).tiny:
            q_norm = float(np.sum(scaled**p) ** (1.0 / p))
        else:  # the largest q^p underflows: take ||q||_p against it, whose term is 1
            q_norm = float(top * np.sum((scaled / top) ** p) ** (1.0 / p))
        with np.errstate(over="ignore"):  # a side past the float range compares as inf
            crit3_lhs = float(np.sum(angles ** (2.0 * conjugate)))
            crit3_rhs = float((_ldexp(np.float64(threshold**2), -e) / q_norm) ** conjugate)
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
    """The three sufficient angle conditions, as ``perturbation_check``
    reports them (no third when p is None); any true one implies the ecart
    falls below the threshold."""
    return perturbation_check(frame, candidates, p).criteria


def perturbation_check(
    frame: WeightedFrame, candidates: Sequence[Submodule], p: float | None = 2.0
) -> PerturbReport:
    """Compare a candidate submodule family against a frame.

    Uses the ecart weighted by the squared weight norms.  The candidate
    family is guaranteed to be a frame when the ecart falls strictly below
    the threshold, the smallest fiber of the optimal lower bound (ties are
    not guaranteed).  In that case the candidate frame is assembled and its
    verified scalar bounds are reported next to the predictions
    (threshold - ecart)^2 and (upper-bound norm + ecart)^2.  When that upper
    prediction or crit1's sum overflows, the check is refused (InvalidWeight).
    """
    bounds = frame_bounds(frame)
    if not bounds.is_frame:
        raise NotAFrame("the reference family is not a frame")
    if len(candidates) != len(frame):
        raise LengthMismatch(f"{len(frame)} submodules but {len(candidates)} candidates")
    dists = tuple(proj_distance(u, v) for u, v in zip(frame.submodules, candidates))
    angles = tuple(float(np.arcsin(d)) for d in dists)
    q_weights = np.asarray(frame.weights.q_weights())
    threshold = float(np.sqrt(bounds.scalar_lower))
    ecart_value = _root_sum_square(q_weights, dists)
    guaranteed = bool(ecart_value < threshold)
    upper_norm = alg_norm(bounds.upper)
    criteria = _evaluate_criteria(np.asarray(angles), q_weights, threshold, p)
    with np.errstate(over="ignore"):  # numpy's scalar power rounds as Python's (libm pow)
        predicted_upper = float(np.float64(upper_norm + ecart_value) ** 2)
    if not np.isfinite([criteria.crit1_lhs, predicted_upper]).all():
        raise InvalidWeight("the perturbation bounds overflow: the weights are too large")
    perturbed_is_frame = perturbed_lower = perturbed_upper = None
    if guaranteed:
        moved_bounds = frame_bounds(WeightedFrame(candidates, frame.weights))
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
        predicted_scalar_upper=predicted_upper,
        perturbed_is_frame=perturbed_is_frame,
        perturbed_scalar_lower=perturbed_lower,
        perturbed_scalar_upper=perturbed_upper,
    )


def _draws(dims: np.ndarray, max_angle: float, rng: np.random.Generator):
    """The plane (i, j) and angle of each fiber, as ``randomly_rotated``
    documents them; rows of fibers with m < 2 stay zero."""
    planes = np.zeros((len(dims), 2), dtype=int)
    thetas = np.zeros(len(dims))
    moved = dims >= 2
    m = dims[moved]
    i, j = np.divmod(rng.integers(0, m * (m - 1)), m - 1)
    j += j >= i  # unrank r in [0, m(m-1)) to an ordered pair with i != j
    planes[moved] = np.column_stack([i, j])
    thetas[moved] = rng.uniform(0.0, max_angle, size=m.size)
    return planes, thetas


def randomly_rotated(
    submodules: Sequence[Submodule], max_angle: float, rng: np.random.Generator
) -> list[Submodule]:
    """Perturb each submodule by one random Givens rotation per fiber.

    The rotation plane is an ordered pair (i, j), i != j, drawn uniformly,
    and the angle is drawn uniformly from [0, max_angle]; one-dimensional
    and quaternion fibers are unchanged and draw nothing.  Over the fibers
    of dimension m >= 2, submodule by submodule and fiber by fiber, one
    ``rng.integers(0, m * (m - 1))`` call (m an array) draws every plane's
    rank r, unranked to i = r // (m - 1), j = r % (m - 1), j += j >= i;
    then one ``rng.uniform(0, max_angle, size=count)`` call draws every
    angle.  The same two calls run for every bit generator.
    """
    if not 0.0 <= max_angle <= sys.float_info.max:  # also an int too large for a float
        raise ValueError("max_angle must be finite and nonnegative")
    max_angle = float(max_angle) + 0.0  # uniform(0, -0.0) raises; take -0.0 as +0.0
    dims = np.array([m for sub in submodules for m in sub.shape.dims], dtype=int)
    all_planes, all_thetas = _draws(dims, max_angle, rng)
    moved = []
    start = 0
    for sub in submodules:
        shape = sub.shape
        fibers = slice(start, start + shape.fiber_count)
        start += shape.fiber_count
        planes, thetas = shape.gather(all_planes[fibers]), shape.gather(all_thetas[fibers])
        givens = {}
        for m in shape.groups.keys() - {1}:
            i, j = planes[m].T
            cos, sin = np.cos(thetas[m]), np.sin(thetas[m])
            # complex, as the product would cast it; the products are unchanged
            givens[m] = giv = np.tile(np.eye(m, dtype=complex), (len(cos), 1, 1))
            rows = np.arange(len(cos))
            giv[rows, i, i] = giv[rows, j, j] = cos
            giv[rows, i, j] = -sin
            giv[rows, j, i] = sin
        moved.append(_conjugated(sub, givens))
    return moved
