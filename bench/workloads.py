"""The benchmark's workloads: generated inputs, the timed op, and its checks.

Every input is generated from the run seed before the op that consumes it is
timed, and the library receives only those generated arrays.  After each op,
outside its timed interval, ``check`` compares the op's outputs with
references computed here from the raw inputs with plain numpy, never from
library internals.  A workload returns a list of problems; an empty list
means the op was correct.

Ops call the library through module attributes (``cf.frame_bounds``, ...) at
call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cstar_fusion as cf

WORK_ROOT = Path(__file__).resolve().parent / ".work"

# Correctness tolerances, as the checks state them.
EXTREME_TOL = 1e-10  # times max(1, lambda_max)
RECONSTRUCT_TOL = 1e-8  # relative, module norm
ROTATION_ANGLE = 0.05


# -- plain-numpy references ----------------------------------------------------


def _gauss(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitaries(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """Haar-random (count, m, m) unitaries from the QR of Gaussian matrices."""
    q, r = np.linalg.qr(_gauss(rng, (count, m, m)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _projections(spans: np.ndarray) -> np.ndarray:
    """Orthogonal projections onto the row spans of a (..., r, m) stack."""
    q, _ = np.linalg.qr(np.swapaxes(spans, -1, -2))
    return q @ np.conj(np.swapaxes(q, -1, -2))


def _operator(spans: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S_k = sum_n w_{n,k}^2 P_{n,k} from (M, N, r, m) spans and (M, N) weights."""
    return np.einsum("nk,nkij->kij", weights**2, _projections(spans))


def _max_norm(rows) -> float:
    """The module norm: the largest Euclidean fiber length."""
    return max(float(np.linalg.norm(r)) for r in rows)


# -- small_fibers / wide_fibers ------------------------------------------------


@dataclass(frozen=True)
class FamilyInput:
    spans: np.ndarray  # (M, N, r, m)
    weights: np.ndarray  # (M, N)
    x: np.ndarray  # (N, m)
    scales: np.ndarray  # (N,)
    unitaries: np.ndarray  # (N, m, m)
    rotation_rng: np.random.Generator


@dataclass(frozen=True)
class FamilyOutput:
    bounds: object
    reconstruction: object
    adjoint_of_synthesis: object
    transported_bounds: object
    perturbation: object


class FamilyWorkload:
    """Each op builds a fresh random family and runs the whole frame pipeline:
    span_submodule x M, WeightedFrame, frame_bounds, tightness, reconstruct,
    synthesis, synthesis_adjoint, OrthoMap, transport_frame,
    randomly_rotated and perturbation_check."""

    layers = (
        "submodule.span_submodule",
        "submodule.project",
        "frame.WeightedFrame",
        "frame.frame_bounds",
        "frame.tightness",
        "frame.reconstruct",
        "frame.synthesis",
        "frame.synthesis_adjoint",
        "morphism.OrthoMap",
        "morphism.transport_frame",
        "perturbation.proj_distance",
        "perturbation.perturbation_check",
        "perturbation.randomly_rotated",
        "hilbert_module.left_action",
        "hilbert_module.ModuleVector",
        "algebra.AlgebraElement",
    )

    def __init__(self, seed: int, fibers: int, dim: int, subs: int, rank: int) -> None:
        self.seed = seed
        self.fibers, self.dim, self.subs, self.rank = fibers, dim, subs, rank
        self.shape = cf.ModuleShape(cf.COMPLEX, (dim,) * fibers)

    def make_input(self, index: int) -> FamilyInput:
        rng = np.random.default_rng([self.seed, index])
        n, m = self.fibers, self.dim
        return FamilyInput(
            spans=_gauss(rng, (self.subs, n, self.rank, m)),
            weights=rng.uniform(0.5, 2.0, (self.subs, n)),
            x=_gauss(rng, (n, m)),
            scales=rng.uniform(0.5, 2.0, n),
            unitaries=_unitaries(rng, n, m),
            rotation_rng=np.random.default_rng([self.seed, index, 1]),
        )

    def op(self, inp: FamilyInput) -> FamilyOutput:
        shape = self.shape
        subs = [cf.span_submodule(shape, inp.spans[n]) for n in range(self.subs)]
        frame = cf.WeightedFrame(subs, cf.WeightSequence.from_matrix(cf.COMPLEX, inp.weights))
        bounds = cf.frame_bounds(frame)
        cf.tightness(frame)
        x = cf.ModuleVector(shape, inp.x)
        reconstruction = cf.reconstruct(frame, x)
        back = cf.synthesis_adjoint(frame, cf.synthesis(frame, x))
        mapping = cf.OrthoMap(shape, inp.scales, inp.unitaries)
        moved = cf.transport_frame(mapping, frame)
        moved_bounds = cf.frame_bounds(moved)
        rotated = cf.randomly_rotated(frame.submodules, ROTATION_ANGLE, inp.rotation_rng)
        report = cf.perturbation_check(frame, rotated)
        return FamilyOutput(bounds, reconstruction, back, moved_bounds, report)

    def check(self, inp: FamilyInput, out: FamilyOutput) -> list[str]:
        problems = []
        s = _operator(inp.spans, inp.weights)
        lam = np.linalg.eigvalsh(s)
        lam_max = float(lam.max())
        ref = np.stack([lam[:, 0], lam[:, -1]], axis=1)
        tol = EXTREME_TOL * np.maximum(1.0, lam[:, -1])[:, None]
        if np.any(np.abs(np.asarray(out.bounds.per_fiber) - ref) > tol):
            problems.append("per_fiber extremes differ from eigvalsh(sum w^2 P)")

        x_norm = _max_norm(inp.x)
        rec = out.reconstruction
        own_error = _max_norm(np.stack(rec.vector.fibers) - inp.x) / x_norm
        if not (rec.rel_error <= RECONSTRUCT_TOL and own_error <= RECONSTRUCT_TOL):
            problems.append(
                f"reconstruct rel_error {rec.rel_error:.3e} (recomputed {own_error:.3e})"
            )

        sx = np.einsum("kij,kj->ki", s, inp.x)
        defect = _max_norm(np.stack(out.adjoint_of_synthesis.fibers) - sx)
        if not defect <= EXTREME_TOL * max(1.0, lam_max) * x_norm:
            problems.append(f"synthesis_adjoint(synthesis(x)) differs from S x by {defect:.3e}")

        moved = out.transported_bounds
        slack = EXTREME_TOL * max(1.0, float(np.max(moved.upper.real_parts())))
        for side in ("lower", "upper"):
            expected = inp.scales * getattr(out.bounds, side).real_parts()
            if np.any(np.abs(getattr(moved, side).real_parts() - expected) > slack):
                problems.append(f"transported {side} bound is not the scales times the original")

        report = out.perturbation
        if report.guaranteed and not report.perturbed_is_frame:
            problems.append("perturbation guaranteed but the perturbed family is not a frame")
        return problems

    def close(self) -> None:
        pass


# -- query_stream --------------------------------------------------------------


class QueryStream:
    """One mixed-dimension frame is built at set-up; each op sends one fresh
    vector through reconstruct, synthesis and synthesis_adjoint."""

    layers = (
        "submodule.project",
        "frame.frame_bounds",
        "frame.reconstruct",
        "frame.synthesis",
        "frame.synthesis_adjoint",
        "hilbert_module.left_action",
        "hilbert_module.ModuleVector",
        "algebra.AlgebraElement",
    )

    DIMS = (1, 2, 4, 8)

    def __init__(self, seed: int, fibers: int, subs: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        dims = rng.choice(self.DIMS, size=fibers)
        weights = rng.uniform(0.5, 2.0, (subs, fibers))
        # Spans grouped by fiber dimension: {m: (M, count, max(1, m // 2), m)}.
        self.groups = {int(m): np.flatnonzero(dims == m) for m in np.unique(dims)}
        spans = {
            m: _gauss(rng, (subs, len(idx), max(1, m // 2), m)) for m, idx in self.groups.items()
        }
        per_fiber = [[None] * fibers for _ in range(subs)]
        for m, idx in self.groups.items():
            for n in range(subs):
                for j, k in enumerate(idx):
                    per_fiber[n][k] = spans[m][n, j]
        self.shape = cf.ModuleShape(cf.COMPLEX, tuple(int(m) for m in dims))
        self.frame = cf.WeightedFrame(
            [cf.span_submodule(self.shape, per_fiber[n]) for n in range(subs)],
            cf.WeightSequence.from_matrix(cf.COMPLEX, weights),
        )
        self.operator = {
            m: _operator(spans[m], weights[:, idx]) for m, idx in self.groups.items()
        }
        self.lam_max = max(float(np.linalg.eigvalsh(s).max()) for s in self.operator.values())
        self.offsets = np.concatenate([[0], np.cumsum(dims)])
        self.total = int(self.offsets[-1])

    def make_input(self, index: int) -> list[np.ndarray]:
        flat = _gauss(np.random.default_rng([self.seed, 1, index]), self.total)
        return np.split(flat, self.offsets[1:-1])

    def op(self, fibers: list[np.ndarray]):
        x = cf.ModuleVector(self.shape, fibers)
        reconstruction = cf.reconstruct(self.frame, x)
        back = cf.synthesis_adjoint(self.frame, cf.synthesis(self.frame, x))
        return reconstruction, back

    def check(self, fibers: list[np.ndarray], out) -> list[str]:
        reconstruction, back = out
        problems = []
        x_norm = _max_norm(fibers)
        error = _max_norm([a - b for a, b in zip(reconstruction.vector.fibers, fibers)]) / x_norm
        if not error <= RECONSTRUCT_TOL:
            problems.append(f"x recovered only to {error:.3e}")
        worst = 0.0
        for m, idx in self.groups.items():
            xs = np.stack([fibers[k] for k in idx])
            sx = np.einsum("kij,kj->ki", self.operator[m], xs)
            got = np.stack([back.fibers[k] for k in idx])
            worst = max(worst, _max_norm(got - sx))
        if not worst <= EXTREME_TOL * max(1.0, self.lam_max) * x_norm:
            problems.append(f"synthesis_adjoint(synthesis(x)) differs from S x by {worst:.3e}")
        return problems

    def close(self) -> None:
        pass


# -- cli_scenarios -------------------------------------------------------------


def _pairs(z: np.ndarray) -> list:
    """Complex array -> nested lists of [re, im] pairs, the scenario format."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def quaternion_scenario(
    rng: np.random.Generator, seed: int, fibers: int, subs: int, samples: int
) -> dict:
    """Coordinate-block quaternion scenario that runs every command kind."""
    index_sets = []
    for n in range(subs):
        chosen = (rng.random(fibers) < 0.5) | (np.arange(fibers) % subs == n)
        index_sets.append([int(k) + 1 for k in np.flatnonzero(chosen)])
    submodules = {f"u{n}": {"blocks": blocks} for n, blocks in enumerate(index_sets)}
    # Candidates: every other submodule loses one of its fibers.
    for n, blocks in enumerate(index_sets):
        moved = blocks if n % 2 else blocks[1:] or blocks
        submodules[f"c{n}"] = {"blocks": moved}
    rotations = rng.standard_normal((fibers, 4))
    rotations /= np.linalg.norm(rotations, axis=1, keepdims=True)
    names = [f"u{n}" for n in range(subs)]
    return {
        "seed": seed,
        "algebra": {"kind": "quaternion", "fibers": fibers},
        "module": {"dims": [1] * fibers},
        "submodules": submodules,
        "weights": {
            "w": rng.uniform(0.5, 2.0, (subs, fibers)).tolist(),
            "w2": rng.uniform(0.5, 2.0, (subs, fibers)).tolist(),
        },
        "frames": {"f": {"submodules": names, "weights": "w"}},
        "vectors": {"x": rng.standard_normal((fibers, 4)).tolist()},
        "maps": {
            "rot": {"scales": rng.uniform(0.5, 2.0, fibers).tolist(), "rotations": rotations.tolist()}
        },
        "perturbations": {"swap": {"frame": "f", "candidates": [f"c{n}" for n in range(subs)]}},
        "commands": [
            {"run": "check-frame", "frame": "f"},
            {"run": "bounds", "frame": "f"},
            {"run": "reconstruct", "frame": "f", "vector": "x"},
            {"run": "tightness", "frame": "f"},
            {"run": "multiplier", "index_sets": index_sets, "weights": "w"},
            {"run": "cone", "frame": "f", "weights": "w2"},
            {"run": "transport", "frame": "f", "map": "rot"},
            {"run": "perturb", "perturbation": "swap"},
            {"run": "verify-oracle", "frame": "f", "samples": samples},
        ],
    }


def complex_scenario(
    rng: np.random.Generator, seed: int, fibers: int, dim: int, subs: int, samples: int
) -> dict:
    """Complex span scenario: bounds, reconstruct, transport, perturb with
    rotate, verify-oracle."""
    rank = max(1, dim // 2)
    submodules = {
        f"s{n}": {"span": _pairs(_gauss(rng, (fibers, rank, dim)))} for n in range(subs)
    }
    return {
        "seed": seed,
        "algebra": {"kind": "complex", "fibers": fibers},
        "module": {"dims": [dim] * fibers},
        "submodules": submodules,
        "weights": {"w": rng.uniform(0.5, 2.0, (subs, fibers)).tolist()},
        "frames": {"f": {"submodules": list(submodules), "weights": "w"}},
        "vectors": {"x": _pairs(_gauss(rng, (fibers, dim)))},
        "maps": {
            "rot": {
                "scales": rng.uniform(0.5, 2.0, fibers).tolist(),
                "rotations": _pairs(_unitaries(rng, fibers, dim)),
            }
        },
        "perturbations": {"wiggle": {"frame": "f", "rotate": {"max_angle": ROTATION_ANGLE}}},
        "commands": [
            {"run": "bounds", "frame": "f"},
            {"run": "reconstruct", "frame": "f", "vector": "x"},
            {"run": "transport", "frame": "f", "map": "rot"},
            {"run": "perturb", "perturbation": "wiggle"},
            {"run": "verify-oracle", "frame": "f", "samples": samples},
        ],
    }


class CliScenarios:
    """Two scenario files are written at set-up; ops alternate between them,
    each one in-process ``cli.main(["run", path, "--out", report])``."""

    layers = (
        "scenario.load_scenario",
        "cli.run_scenario",
        "cli.dump_json",
        "oracle.flatten_frame_operator",
        "oracle.eigen_bounds",
        "oracle.brute_force_frame_check",
        "submodule.span_submodule",
        "submodule.block_submodule",
        "submodule.project",
        "frame.WeightedFrame",
        "frame.frame_bounds",
        "frame.tightness",
        "frame.reconstruct",
        "frame.cone_add",
        "frame.block_multiplier_check",
        "morphism.OrthoMap",
        "morphism.transport_frame",
        "perturbation.proj_distance",
        "perturbation.perturbation_check",
        "perturbation.randomly_rotated",
        "hilbert_module.inner_product",
        "hilbert_module.left_action",
        "hilbert_module.ModuleVector",
        "algebra.AlgebraElement",
    )

    def __init__(self, seed: int, quaternion: dict, complex_: dict) -> None:
        import cstar_fusion.cli  # noqa: F401  (its import is part of set-up)

        rng = np.random.default_rng([seed, 0])
        scenario_seed = seed % 2**32
        docs = {
            "quaternion": quaternion_scenario(rng, scenario_seed, **quaternion),
            "complex": complex_scenario(rng, scenario_seed, **complex_),
        }
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_ROOT))
        self.files = []
        for name, doc in docs.items():
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.files.append((path, self.workdir / f"{name}.report.json"))
        self.first_reports: dict[int, bytes] = {}

    def make_input(self, index: int) -> int:
        return index % len(self.files)

    def op(self, which: int) -> int:
        scenario, report = self.files[which]
        return cf.cli.main(["run", str(scenario), "--out", str(report)])

    def check(self, which: int, status: int) -> list[str]:
        problems = []
        if status != 0:
            problems.append(f"cli.main returned {status}")
        text = self.files[which][1].read_bytes()
        first = self.first_reports.setdefault(which, text)
        if text != first:
            problems.append("report differs from the first report of the same file and seed")
        report = json.loads(text)
        if report.get("ok") is not True:
            problems.append("report has ok != true")
        oracle = [r for r in report["results"] if r["command"] == "verify-oracle"]
        if not oracle:
            problems.append("report has no verify-oracle entry")
        for entry in oracle:
            out = entry.get("output", {})
            if not (out.get("matches_bounds") is True and out.get("sample_check") is True):
                problems.append(f"verify-oracle entry {entry['index']} does not match")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- registry ------------------------------------------------------------------

SIZES = {
    "small_fibers": {
        "full": dict(fibers=256, dim=4, subs=8, rank=2),
        "tiny": dict(fibers=6, dim=4, subs=4, rank=2),
    },
    "wide_fibers": {
        "full": dict(fibers=4, dim=128, subs=8, rank=32),
        "tiny": dict(fibers=2, dim=72, subs=4, rank=24),
    },
    "query_stream": {
        "full": dict(fibers=1000, subs=8),
        "tiny": dict(fibers=12, subs=4),
    },
    "cli_scenarios": {
        "full": dict(
            quaternion=dict(fibers=64, subs=8, samples=20),
            complex_=dict(fibers=64, dim=8, subs=6, samples=20),
        ),
        "tiny": dict(
            quaternion=dict(fibers=4, subs=3, samples=3),
            complex_=dict(fibers=4, dim=4, subs=3, samples=3),
        ),
    },
}


def build(name: str, seed: int, size: str):
    """Set up the named workload: generate its fixed inputs and any state
    built once.  Why each workload exists is stated beside its entry."""
    params = SIZES[name][size]
    if name == "small_fibers":
        # Per-fiber Python loops dominate and each LAPACK call is tiny: the
        # mechanism batched fiber storage removes.
        return FamilyWorkload(seed, **params)
    if name == "wide_fibers":
        # Few fibers, so time goes to LAPACK/BLAS and per-vector Gram-Schmidt;
        # batching predicts no change.  m > 64 puts reconstruct on the CG path.
        return FamilyWorkload(seed, **params)
    if name == "query_stream":
        # The read path on a cached frame: work moved into construction speeds
        # these ops and shows in this workload's setup_s; mixed fiber
        # dimensions test grouping by dimension.
        return QueryStream(seed, **params)
    if name == "cli_scenarios":
        # The only workload where scenario, cli.dump_json, oracle and the
        # quaternion algebra/hilbert_module path do most of the work.
        return CliScenarios(seed, **params)
    raise KeyError(f"unknown workload {name!r}")
