"""Shared random generators for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    ModuleShape,
    ModuleVector,
    OrthoMap,
    Submodule,
    WeightSequence,
    WeightedFrame,
    block_submodule,
    frame_bounds,
)


def peak_bytes(fn) -> int:
    """The most memory ``fn()`` held at once, in bytes, its result
    included, as tracemalloc counts it; numpy reports its array buffers
    there."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def pairs(z) -> list:
    """Complex data as nested lists of [re, im] pairs, the scenario format."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def scenario_doc(shape: ModuleShape, **sections) -> dict:
    """A scenario document for the given shape with the given sections."""
    return {
        "algebra": {"kind": shape.kind, "fibers": shape.fiber_count},
        "module": {"dims": list(shape.dims)},
        **sections,
    }


def random_algebra(rng: np.random.Generator, kind: str, n: int) -> AlgebraElement:
    if kind == COMPLEX:
        return AlgebraElement(COMPLEX, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return AlgebraElement(QUATERNION, rng.standard_normal((n, 4)))


def random_positive_algebra(
    rng: np.random.Generator, kind: str, n: int, low: float = 0.1, high: float = 2.0
) -> AlgebraElement:
    return AlgebraElement.from_real(rng.uniform(low, high, size=n), kind)


def random_vector(rng: np.random.Generator, shape: ModuleShape) -> ModuleVector:
    if shape.kind == COMPLEX:
        fibers = [rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in shape.dims]
    else:
        fibers = [rng.standard_normal(4) for _ in shape.dims]
    return ModuleVector(shape, fibers)


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    gauss = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(gauss)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_span_submodule(
    rng: np.random.Generator, shape: ModuleShape, ranks: list[int] | None = None
) -> Submodule:
    fibers = []
    for k, m in enumerate(shape.dims):
        rank = ranks[k] if ranks is not None else int(rng.integers(0, m + 1))
        basis = random_unitary(rng, m)[:, :rank]
        proj = basis @ basis.conj().T
        fibers.append((proj + proj.conj().T) / 2.0)
    return Submodule(shape, fibers)


def random_complex_frame(
    rng: np.random.Generator,
    max_fibers: int = 4,
    max_dim: int = 8,
    max_subs: int = 12,
    cond_cap: float = 1e6,
    min_dim: int = 1,
) -> WeightedFrame:
    """Random span-submodule frame, resampled until it verifies with the
    requested condition number."""
    while True:
        n = int(rng.integers(1, max_fibers + 1))
        dims = tuple(int(rng.integers(min_dim, max_dim + 1)) for _ in range(n))
        shape = ModuleShape(COMPLEX, dims)
        count = int(rng.integers(2, max_subs + 1))
        subs = [random_span_submodule(rng, shape) for _ in range(count)]
        weights = WeightSequence.from_matrix(COMPLEX, rng.uniform(0.2, 2.0, size=(count, n)))
        frame = WeightedFrame(subs, weights)
        bounds = frame_bounds(frame)
        if bounds.is_frame and bounds.scalar_upper / bounds.scalar_lower <= cond_cap:
            return frame


def random_quaternion_frame(
    rng: np.random.Generator, max_fibers: int = 5, max_subs: int = 6
) -> WeightedFrame:
    """Random coordinate-block frame over quaternion fibers, with every
    fiber covered by at least one block."""
    n = int(rng.integers(1, max_fibers + 1))
    shape = ModuleShape(QUATERNION, (1,) * n)
    count = int(rng.integers(1, max_subs + 1))
    index_sets = []
    for _ in range(count):
        size = int(rng.integers(1, n + 1))
        index_sets.append(sorted(rng.choice(n, size=size, replace=False) + 1))
    covered = set().union(*map(set, index_sets))
    missing = sorted(set(range(1, n + 1)) - covered)
    if missing:
        index_sets[-1] = sorted(set(index_sets[-1]) | set(missing))
    subs = [block_submodule(shape, idx) for idx in index_sets]
    weights = WeightSequence.from_matrix(QUATERNION, rng.uniform(0.2, 2.0, size=(count, n)))
    return WeightedFrame(subs, weights)


def random_ortho_map(
    rng: np.random.Generator, shape: ModuleShape, scale_range=(0.5, 2.0)
) -> OrthoMap:
    scales = rng.uniform(*scale_range, size=shape.fiber_count)
    if shape.kind == COMPLEX:
        rotations = [random_unitary(rng, m) for m in shape.dims]
    else:
        rotations = [random_unit_quaternion(rng) for _ in shape.dims]
    return OrthoMap(shape, scales, rotations)


def rotation_draws(dims, max_angle, rng):
    """The documented rotation stream, unranked in a plain loop: one
    ``integers`` call ranks every plane of the fibers with m >= 2, then one
    ``uniform`` call draws their angles.  Rows of other fibers stay zero."""
    planes = np.zeros((len(dims), 2), dtype=int)
    thetas = np.zeros(len(dims))
    moved = [k for k, m in enumerate(dims) if m >= 2]
    sizes = np.array([dims[k] for k in moved], dtype=int)
    ranks = rng.integers(0, sizes * (sizes - 1))
    angles = rng.uniform(0.0, max_angle, size=len(moved))
    for k, m, r, theta in zip(moved, sizes, ranks, angles):
        i, j = divmod(int(r), int(m) - 1)
        if j >= i:
            j += 1
        planes[k] = i, j
        thetas[k] = theta
    return planes, thetas
