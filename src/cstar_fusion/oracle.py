"""Dense brute-force reference used to cross-check the fiberwise fast path.

Everything here flattens the module into one complex coordinate space
(each fiber has ``ModuleShape.widths`` coordinates: a quaternion fiber two,
whose operators are already complex 2x2 blocks) and re-derives frame
quantities by direct dense linear algebra or random sampling, for tests and
the CLI verification command; the dense dimension is capped at DENSE_CAP.
The dense energies assume every submodule block is a projection, which
``verify_frame`` checks (``validate_projection``).

The dense extremes are taken block by block: ``_block_bounds`` splits the
matrix into the contiguous diagonal blocks its own exact zeros give, checks
that each is Hermitian relative to its own norm and runs one ``eigvalsh``
per block size on the gathered blocks at their exact scales, once per
operator, shared by ``verify_frame`` (the ``verify-oracle`` verdict) and
``eigen_bounds``; no norm or decomposition of the whole matrix is taken.
The split reads nothing of the module shape or fiber layout, so an entry
the assembly misplaces merges blocks instead of being dropped, and the
oracle stays independent of the fast path.

The samples come from a stream defined here: each vector is one
``standard_normal(2 D)`` draw read as D complex coordinates.

Every pass over the whole matrix reads it in memory order, and neither
function copies it: ``flatten_frame_operator`` sums and symmetrises each
fiber dimension's blocks on their own stack before writing them into the
zero matrix once, and hands that matrix to ``DenseOperator`` as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, _frexp_exponent, _ldexp
from .errors import NotFinite, NotHermitian, ShapeMismatch
from .frame import FrameBounds, WeightedFrame, frame_bounds
from .hilbert_module import ModuleShape, ModuleVector, _adjoint, _hermitian, _spectral_defects
from .hilbert_module import inner_product
from .submodule import validate_projection
from .tolerance import DENSE_CAP, HERMITIAN_TOL, ORACLE_SLACK, SAMPLE_REDRAW

# Sampled coordinates held at once, so memory stays bounded for any sample count.
_BATCH_COORDINATES = 1 << 16


@dataclass(frozen=True, slots=True, eq=False)
class DenseOperator:
    """A single square complex matrix acting on the flattened module.

    A complex ndarray that is read-only and owns its data is kept as it is;
    any other input is copied into one.
    """

    matrix: np.ndarray
    _blocks: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        arr = self.matrix
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == complex
            and not arr.flags.writeable
            and arr.flags.owndata
        ):
            arr = np.array(arr, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
            raise ShapeMismatch("a dense operator must be a nonempty square matrix")
        if not np.isfinite(arr).all():
            raise NotFinite("a dense operator must have finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


def flatten_vector(x: ModuleVector) -> np.ndarray:
    """Flatten fiber-major into one complex vector; quaternion fibers map
    to (w + xi, y + zi), which preserves the Euclidean fiber norm."""
    return np.concatenate(x.fibers).view(float).view(complex)


def _fiber_offsets(shape: ModuleShape) -> np.ndarray:
    """Where each fiber starts in the flattened coordinates, then the total."""
    return np.concatenate([[0], np.cumsum([shape.widths[m] for m in shape.dims])])


def flatten_frame_operator(frame: WeightedFrame) -> DenseOperator:
    """Assemble the frame operator as one dense block-diagonal matrix.

    Each fiber dimension's blocks are summed on their own (count, w, w)
    stack, submodule by submodule, symmetrised there, and written into the
    zero matrix once; the matrix itself is neither copied nor transposed.
    """
    shape = frame.shape
    offsets = _fiber_offsets(shape)
    total = int(offsets[-1])
    if total > DENSE_CAP:
        raise ShapeMismatch(f"dense dimension {total} exceeds the cap {DENSE_CAP}")
    out = np.zeros((total, total), dtype=complex)
    wmatrix = frame.weights.matrix
    for m, idx in shape.groups.items():
        squares = (wmatrix[:, idx] ** 2)[:, :, None, None]
        acc = sum(w2 * sub.blocks[m] for w2, sub in zip(squares, frame.submodules))
        at = offsets[idx][:, None, None] + np.arange(acc.shape[-1])
        out[np.swapaxes(at, 1, 2), at] = _hermitian(acc)
    out.setflags(write=False)
    return DenseOperator(out)


def _diagonal_blocks(m: np.ndarray):
    """The contiguous diagonal blocks of a square matrix, stacked by size:
    (starts, (count, s, s) array gathered from m) for each size s, by
    increasing size, the starts increasing.

    m splits at i when m[:i, i:] and m[i:, :i] are all exactly zero: when
    no row above i reaches column i in m or in its transpose, which is each
    row's last such column (its diagonal counting) in a running max.  So m
    and m^H are both zero off the blocks.
    """
    n = len(m)
    nonzero = m != 0
    nonzero |= nonzero.T
    nonzero[np.diag_indices(n)] = True
    last = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    ends = np.flatnonzero(np.maximum.accumulate(last) == np.arange(n)) + 1
    starts = np.concatenate([[0], ends[:-1]])
    sizes = ends - starts
    # Not np.unique: in numpy 2 it imports numpy.ma, which costs a process ~1 MiB.
    for s in sorted(set(sizes.tolist())):
        first = starts[sizes == s]
        at = first[:, None, None] + np.arange(s)
        yield first, m[np.swapaxes(at, 1, 2), at]


def _block_bounds(op: DenseOperator) -> tuple[np.ndarray, ...]:
    """(start, stop, lowest, highest) of each contiguous diagonal block b of
    the operator m (``_diagonal_blocks``), one per block, kept on the
    operator.  Each b must be Hermitian relative to its own norm,
    ||b - b^H||_2 <= HERMITIAN_TOL * ||b||_2, else NotHermitian.

    m and m^H are zero off the blocks, so b's extremes are those of m's
    restriction to b's coordinates; they are taken on (b + b^H) / 2, with
    one batched ``eigvalsh`` per block size, and are accurate to
    eps * ||b||.  For a Hermitian m, (b + b^H) / 2 = b.  Every block is
    checked and decomposed at its exact scale 2^-e, so nothing overflows
    on the way; an extreme beyond the float range raises NotFinite.
    """
    if op._blocks is not None:
        return op._blocks
    found = []
    for first, b in _diagonal_blocks(op.matrix):
        e = _frexp_exponent(b, (1, 2))
        b = _ldexp(b, -e[:, None, None])
        # b's largest |re| or |im| is at most ||b||_2, which is taken only past it.
        floor = HERMITIAN_TOL * abs(b.view(float)).max(axis=(1, 2))
        defect = _spectral_defects(b - _adjoint(b), floor)
        past = defect > floor
        if past.any():
            bad = defect[past] > HERMITIAN_TOL * np.linalg.norm(b[past], 2, axis=(1, 2))
            if bad.any():
                with np.errstate(over="ignore"):
                    worst = _ldexp(defect[past][bad], e[past][bad]).max()
                raise NotHermitian(f"operator deviates from Hermitian by {worst:.2e}")
        eigvals = np.linalg.eigvalsh(_hermitian(b))
        with np.errstate(over="ignore"):
            lowest, highest = _ldexp(eigvals[:, 0], e), _ldexp(eigvals[:, -1], e)
        if not (np.isfinite(lowest).all() and np.isfinite(highest).all()):
            raise NotFinite("an extreme eigenvalue of the operator exceeds the float range")
        found.append((first, first + b.shape[1], lowest, highest))
    object.__setattr__(op, "_blocks", tuple(np.concatenate(column) for column in zip(*found)))
    return op._blocks


def eigen_bounds(op: DenseOperator) -> dict:
    """Extreme eigenvalues of a Hermitian operator m: the lowest and highest
    over its diagonal blocks (``_block_bounds``).  A matrix with no split
    is one block.  The split reads neither the module shape nor the fiber
    offsets, so a misplaced entry merges blocks rather than being lost.
    """
    _, _, lowest, highest = _block_bounds(op)
    return {"lambda_min": float(lowest.min()), "lambda_max": float(highest.max())}


def _unit_samples(shape: ModuleShape, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random vectors of module norm one (largest fiber length 1),
    as the rows of a (count, D) array in ``flatten_vector``'s layout.

    Each vector is one ``standard_normal(2 D)`` draw read as D complex
    coordinates (re, im) in that layout, which for quaternion fibers is
    their (w, x, y, z) rows.  A vector of norm at most SAMPLE_REDRAW is
    redrawn from the next numbers of the stream, so the vectors and the
    generator's end state are those of drawing one vector at a time.
    """
    offsets = _fiber_offsets(shape)
    total = int(offsets[-1])
    rows = np.empty((0, total), dtype=complex)
    while len(rows) < count:
        x = rng.standard_normal((count - len(rows), 2 * total)).view(complex)
        lengths = np.add.reduceat(x.real**2 + x.imag**2, offsets[:-1], axis=1)
        norms = np.sqrt(lengths.max(axis=1))
        keep = norms > SAMPLE_REDRAW
        rows = np.concatenate([rows, x[keep] * (1.0 / norms[keep])[:, None]])
    return rows


def random_unit_vector(shape: ModuleShape, rng: np.random.Generator) -> ModuleVector:
    """A module vector of norm one (largest fiber length is 1)."""
    row = _unit_samples(shape, rng, 1)[0]
    coordinates = np.split(row, _fiber_offsets(shape)[1:-1])
    return ModuleVector(shape, [c.view(shape.row_dtype) for c in coordinates])


def fiber_energies(operator: DenseOperator, shape: ModuleShape, rows: np.ndarray) -> np.ndarray:
    """Per-fiber Rayleigh forms of the dense operator S at the rows of a
    (count, D) array in ``flatten_vector``'s layout: E[s, k] is the sum over
    fiber k's coordinates i of conj(x_s[i]) (S x_s)[i].  S and the rows
    must both be D wide, else ShapeMismatch."""
    offsets = _fiber_offsets(shape)
    if {len(operator.matrix), rows.shape[-1]} != {offsets[-1]}:
        raise ShapeMismatch(f"the operator and the rows must be {offsets[-1]} wide")
    starts = offsets[:-1]
    return np.add.reduceat(np.conj(rows) * (rows @ operator.matrix.T), starts, axis=1)


def _agreement_slack(bounds: FrameBounds) -> np.ndarray:
    """How far the oracle may differ from the fast path in each fiber:
    ORACLE_SLACK times that fiber's largest eigenvalue."""
    return ORACLE_SLACK * np.array(bounds.per_fiber)[:, 1]


def brute_force_frame_check(
    frame: WeightedFrame,
    samples: int,
    rng: np.random.Generator | None = None,
    operator: DenseOperator | None = None,
) -> bool:
    """Sample random unit vectors and verify the frame's decided bounds.

    Checks that the scalar constants bracket the observed weighted energies
    and that the algebra-order inequalities with the optimal bounds hold on
    every sample, each fiber within its ``_agreement_slack`` (the bracket
    within the largest).  The energies are the ``fiber_energies`` of the
    dense frame operator (``flatten_frame_operator`` unless given), which
    are sum_n w_n^2 |(P_n x_s)_k|^2 when every P_n is a projection, as
    ``verify_frame`` checks.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    bounds = frame_bounds(frame)
    if rng is None:
        rng = np.random.default_rng(0)
    if operator is None:
        operator = flatten_frame_operator(frame)
    slack = _agreement_slack(bounds)
    starts = _fiber_offsets(frame.shape)[:-1]
    scalar_low, scalar_high = bounds.scalar_lower - slack.max(), bounds.scalar_upper + slack.max()
    low_scale = bounds.lower.fiber_moduli() ** 2
    high_scale = bounds.upper.fiber_moduli() ** 2
    batch = max(1, _BATCH_COORDINATES // len(operator.matrix))
    for done in range(0, samples, batch):
        x = _unit_samples(frame.shape, rng, min(batch, samples - done))
        energy = fiber_energies(operator, frame.shape, x)
        observed = np.abs(energy).max(axis=1)  # the algebra norm of each sample's energy
        if observed.min() < scalar_low or observed.max() > scalar_high:
            return False
        # |a x|^2 is |a_k|^2 |x_k|^2 in fiber k for a bound a; the order b - a >= 0
        # holds fiberwise within slack when Im(b - a) <= slack and Re(b - a) >= -slack.
        lengths = np.add.reduceat(x.real**2 + x.imag**2, starts, axis=1)
        if not (
            np.all(np.abs(energy.imag) <= slack)
            and np.all(energy.real - low_scale * lengths >= -slack)
            and np.all(high_scale * lengths - energy.real >= -slack)
        ):
            return False
    return True


def verify_frame(frame: WeightedFrame, samples: int, rng: np.random.Generator) -> dict:
    """The ``verify-oracle`` verdict, from one dense operator S split and
    decomposed once.  ``matches_bounds``: every submodule's blocks are
    Hermitian and idempotent within PROJECTION_TOL (``validate_projection``),
    each dense block lies in one fiber whose ``per_fiber`` pair is its
    blocks' extremes, and the fast path's energy <S x, x> at a unit vector
    drawn after the samples, which checks all of S, is the dense one; each
    within the fiber's slack."""
    bounds = frame_bounds(frame)
    operator = flatten_frame_operator(frame)
    eig = eigen_bounds(operator)
    start, stop, lowest, highest = _block_bounds(operator)
    slack = _agreement_slack(bounds)
    sample_ok = brute_force_frame_check(frame, samples, rng, operator=operator)
    # Each dense block lies in the fiber whose coordinates hold its start, or
    # straddles two; a fiber's dense pair is the extremes over its blocks.
    offsets = _fiber_offsets(frame.shape)
    fiber = np.searchsorted(offsets, start, side="right") - 1
    dense = np.full((len(slack), 2), [np.inf, -np.inf])
    np.minimum.at(dense[:, 0], fiber, lowest)
    np.maximum.at(dense[:, 1], fiber, highest)
    x = random_unit_vector(frame.shape, rng)
    fast = inner_product(frame.operator_fibers.apply(x), x)
    energy = fiber_energies(operator, frame.shape, flatten_vector(x)[None])[0]
    gap = fast - AlgebraElement.from_real(energy.real, frame.shape.kind)
    matches = (
        all(validate_projection(sub) for sub in frame.submodules)
        and np.all(stop <= offsets[fiber + 1])
        and np.all(np.abs(dense - bounds.per_fiber) <= slack[:, None])
        and np.all(gap.fiber_moduli() <= slack)
        and np.all(np.abs(energy.imag) <= slack)
    )
    verdict = {"matches_bounds": bool(matches), "samples": samples, "sample_check": bool(sample_ok)}
    return eig | verdict
