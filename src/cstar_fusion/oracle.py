"""Dense brute-force reference used to cross-check the fiberwise fast path.

Everything here flattens the module into one complex coordinate space
(quaternion fibers expand to two complex coordinates) and re-derives frame
quantities by direct dense linear algebra or random sampling.  Intended for
tests and the CLI verification command; dense dimension is capped at 2048.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import COMPLEX, Quaternion, alg_norm, order_leq
from .errors import NotHermitian, ShapeMismatch
from .frame import FrameBounds, WeightedFrame, frame_bounds
from .hilbert_module import ModuleShape, ModuleVector, inner_product, left_action, module_norm
from .submodule import project

_DENSE_CAP = 2048


@dataclass(frozen=True, slots=True, eq=False)
class DenseOperator:
    """A single square complex matrix acting on the flattened module."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeMismatch("a dense operator must be a square matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


def quaternion_block(q: Quaternion) -> np.ndarray:
    """The 2x2 complex block of q = a + b*j: [[a, b], [-conj(b), conj(a)]].

    A faithful star-representation: conjugation becomes the Hermitian
    adjoint and |q| the operator 2-norm.
    """
    a = q.w + 1j * q.x
    b = q.y + 1j * q.z
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def flatten_vector(x: ModuleVector) -> np.ndarray:
    """Flatten fiber-major into one complex vector; quaternion fibers map
    to (w + xi, y + zi), which preserves the Euclidean fiber norm."""
    parts = []
    for f in x.fibers:
        if x.shape.kind == COMPLEX:
            parts.append(np.asarray(f))
        else:
            parts.append(np.array([f[0] + 1j * f[1], f[2] + 1j * f[3]]))
    return np.concatenate(parts)


def flatten_frame_operator(frame: WeightedFrame) -> DenseOperator:
    """Assemble the frame operator as one dense block-diagonal matrix, adding
    each weighted fiber projection into its block, submodule by submodule."""
    dims = [m if frame.shape.kind == COMPLEX else 2 for m in frame.shape.dims]
    total = sum(dims)
    if total > _DENSE_CAP:
        raise ShapeMismatch(f"dense dimension {total} exceeds the cap {_DENSE_CAP}")
    offsets = np.concatenate([[0], np.cumsum(dims)])
    out = np.zeros((total, total), dtype=complex)
    wmatrix = frame.weights.matrix
    for n, sub in enumerate(frame.submodules):
        for k, (p, lo, hi) in enumerate(zip(sub.fibers, offsets, offsets[1:])):
            block = np.asarray(p) if frame.shape.kind == COMPLEX else float(p[0, 0]) * np.eye(2)
            out[lo:hi, lo:hi] += wmatrix[n, k] ** 2 * block
    out += out.conj().T
    out /= 2.0
    return DenseOperator(out)


def eigen_bounds(op: DenseOperator, tol: float = 1e-10) -> dict:
    """Extreme eigenvalues by full symmetric eigendecomposition, once m is
    Hermitian: ||m - m^H||_2 <= tol * max(1, ||m||_2)."""
    m = np.asarray(op.matrix)
    if not np.linalg.norm(m - m.conj().T) <= tol / 2:  # Frobenius >= spectral; /2 for rounding
        defect = float(np.linalg.norm(m - m.conj().T, 2))
        if defect > tol * max(1.0, float(np.linalg.norm(m, 2))):
            raise NotHermitian(f"operator deviates from Hermitian by {defect:.2e}")
    eigvals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return {"lambda_min": float(eigvals[0]), "lambda_max": float(eigvals[-1])}


def random_unit_vector(shape: ModuleShape, rng: np.random.Generator) -> ModuleVector:
    """A module vector of norm one (largest fiber length is 1)."""
    while True:
        if shape.kind == COMPLEX:
            fibers = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in shape.dims]
        else:
            fibers = [rng.standard_normal(4) for _ in shape.dims]
        x = ModuleVector(shape, fibers)
        norm = module_norm(x)
        if norm > 1e-8:
            return x * (1.0 / norm)


def _weighted_energy(frame: WeightedFrame, x: ModuleVector):
    """sum_n w_n^2 |P_n x|^2 evaluated through projections and inner
    products only, independent of the cached frame operator."""
    acc = None
    for sub, w in zip(frame.submodules, frame.weights):
        piece = left_action(w, project(sub, x))
        term = inner_product(piece, piece)
        acc = term if acc is None else acc + term
    return acc


def brute_force_frame_check(
    frame: WeightedFrame,
    samples: int,
    bounds: FrameBounds | None = None,
    rng: np.random.Generator | None = None,
    tol: float = 1e-10,
) -> bool:
    """Sample random unit vectors and verify the reported bounds.

    Checks that the scalar constants bracket the observed weighted energies
    and that the algebra-order inequalities with the reported optimal
    bounds hold on every sample.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if bounds is None:
        bounds = frame_bounds(frame)
    if rng is None:
        rng = np.random.default_rng(0)
    slack = tol * max(1.0, bounds.scalar_upper)
    for _ in range(samples):
        x = random_unit_vector(frame.shape, rng)
        energy = _weighted_energy(frame, x)
        observed = alg_norm(energy)
        if observed < bounds.scalar_lower - slack or observed > bounds.scalar_upper + slack:
            return False
        low_side = left_action(bounds.lower, x)
        high_side = left_action(bounds.upper, x)
        if not order_leq(inner_product(low_side, low_side), energy, slack):
            return False
        if not order_leq(energy, inner_product(high_side, high_side), slack):
            return False
    return True
