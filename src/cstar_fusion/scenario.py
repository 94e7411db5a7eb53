"""Loading and validation of declarative scenario files.

A scenario is a JSON document naming an algebra, a module shape, submodules,
weight matrices, frames, maps, perturbations and a list of commands.  All
cross-references are resolved here; a dangling name or inconsistent shape
raises ValidationError with the offending key path, while malformed JSON
raises ParseError with the location reported by the parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import COMPLEX, QUATERNION
from .errors import CstarFusionError, ParseError, ValidationError
from .frame import WeightedFrame, WeightSequence
from .hilbert_module import ModuleShape, ModuleVector
from .morphism import OrthoMap
from .submodule import Submodule, block_submodule, span_submodule, validate_projection

COMMANDS = (
    "check-frame",
    "bounds",
    "reconstruct",
    "tightness",
    "multiplier",
    "cone",
    "transport",
    "perturb",
    "verify-oracle",
)


@dataclass(frozen=True)
class PerturbationSpec:
    frame: str
    candidates: tuple[str, ...] | None
    rotate: dict | None


@dataclass
class Scenario:
    """A fully resolved scenario; building one validates every reference."""

    raw: dict
    seed: int
    shape: ModuleShape
    submodules: dict[str, Submodule] = field(default_factory=dict)
    weights: dict[str, WeightSequence] = field(default_factory=dict)
    frames: dict[str, WeightedFrame] = field(default_factory=dict)
    vectors: dict[str, ModuleVector] = field(default_factory=dict)
    maps: dict[str, OrthoMap] = field(default_factory=dict)
    perturbations: dict[str, PerturbationSpec] = field(default_factory=dict)
    commands: list[dict] = field(default_factory=list)


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _require(data: dict, key: str, path: str):
    if key not in data:
        _fail(path, f"missing required key {key!r}")
    return data[key]


def _complex_vector(entries, path: str) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a list of [re, im] pairs")
    if arr.ndim != 2 or arr.shape[1] != 2:
        _fail(path, "expected a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_matrix(entries, m: int, path: str) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a row-major matrix of [re, im] entries")
    if arr.shape != (m, m, 2):
        _fail(path, f"expected a {m}x{m} matrix of [re, im] entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _build_shape(raw: dict) -> ModuleShape:
    algebra = _require(raw, "algebra", "scenario")
    kind = _require(algebra, "kind", "algebra")
    if kind not in (COMPLEX, QUATERNION):
        _fail("algebra.kind", f"unknown kind {kind!r}")
    fibers = _require(algebra, "fibers", "algebra")
    if isinstance(fibers, bool) or not isinstance(fibers, int) or fibers < 1:
        _fail("algebra.fibers", "fiber count must be a positive integer")
    dims = raw.get("module", {}).get("dims", [1] * fibers)
    if len(dims) != fibers:
        _fail("module.dims", f"expected {fibers} entries, got {len(dims)}")
    try:
        return ModuleShape(kind, tuple(dims))
    except CstarFusionError as exc:
        _fail("module.dims", str(exc))


def _build_submodule(name: str, spec: dict, shape: ModuleShape) -> Submodule:
    path = f"submodules.{name}"
    if not isinstance(spec, dict):
        _fail(path, "expected an object")
    forms = [k for k in ("blocks", "selectors", "span", "projection") if k in spec]
    if len(forms) != 1:
        _fail(path, "need exactly one of blocks / selectors / span / projection")
    form = forms[0]
    try:
        if form == "blocks":
            return block_submodule(shape, spec["blocks"])
        if form == "selectors":
            bits = spec["selectors"]
            if len(bits) != shape.fiber_count:
                _fail(path, f"expected {shape.fiber_count} selector bits")
            if any(b not in (0, 1) for b in bits):
                _fail(path, "selector bits must be 0 or 1")
            return block_submodule(shape, [k + 1 for k, b in enumerate(bits) if b == 1])
        if form == "span":
            spans = spec["span"]
            if len(spans) != shape.fiber_count:
                _fail(path, f"expected spans for {shape.fiber_count} fibers")
            vectors = [
                [_complex_vector(v, f"{path}.span[{k}]") for v in fiber_spans]
                for k, fiber_spans in enumerate(spans)
            ]
            return span_submodule(shape, vectors)
        mats = spec["projection"]
        if len(mats) != shape.fiber_count:
            _fail(path, f"expected {shape.fiber_count} projection matrices")
        fibers = []
        for k, m in enumerate(shape.dims):
            if shape.kind == QUATERNION:
                if mats[k] not in (0, 1):
                    _fail(f"{path}.projection[{k}]", "a quaternion selector must be 0 or 1")
                fibers.append(np.array([[float(mats[k])]]))
            else:
                fibers.append(_complex_matrix(mats[k], m, f"{path}.projection[{k}]"))
        sub = Submodule(shape, fibers)
        if not validate_projection(sub):
            _fail(f"{path}.projection", "not a Hermitian idempotent matrix in every fiber")
        return sub
    except ValidationError:
        raise
    except CstarFusionError as exc:
        _fail(path, str(exc))


def _build_vector(name: str, entries, shape: ModuleShape) -> ModuleVector:
    path = f"vectors.{name}"
    if len(entries) != shape.fiber_count:
        _fail(path, f"expected {shape.fiber_count} fibers")
    try:
        if shape.kind == COMPLEX:
            fibers = [_complex_vector(f, f"{path}[{k}]") for k, f in enumerate(entries)]
        else:
            fibers = [np.asarray(f, dtype=float) for f in entries]
        return ModuleVector(shape, fibers)
    except ValidationError:
        raise
    except (CstarFusionError, TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _build_map(name: str, spec: dict, shape: ModuleShape) -> OrthoMap:
    path = f"maps.{name}"
    scales = spec.get("scales", [1.0] * shape.fiber_count)
    if len(scales) != shape.fiber_count:
        _fail(path, f"expected {shape.fiber_count} scales")
    rotations = spec.get("rotations")
    try:
        if rotations is None:
            identity = OrthoMap.identity(shape)
            return OrthoMap(shape, scales, identity.rotations)
        if len(rotations) != shape.fiber_count:
            _fail(path, f"expected {shape.fiber_count} rotations")
        built = []
        for k, rot in enumerate(rotations):
            if shape.kind == COMPLEX:
                built.append(_complex_matrix(rot, shape.dims[k], f"{path}.rotations[{k}]"))
            else:
                built.append(np.asarray(rot, dtype=float))
        return OrthoMap(shape, scales, built)
    except ValidationError:
        raise
    except (CstarFusionError, ValueError) as exc:
        _fail(path, str(exc))


def _check_command(cmd: dict, index: int, scenario: Scenario) -> None:
    path = f"commands[{index}]"
    name = _require(cmd, "run", path)
    if name not in COMMANDS:
        _fail(path, f"unknown command {name!r}; expected one of {', '.join(COMMANDS)}")

    def frame_ref(key: str = "frame") -> None:
        frame = _require(cmd, key, path)
        if frame not in scenario.frames:
            _fail(f"{path}.{key}", f"unknown frame {frame!r}")

    if name in ("check-frame", "bounds", "tightness", "verify-oracle"):
        frame_ref()
    elif name == "reconstruct":
        frame_ref()
        vec = _require(cmd, "vector", path)
        if vec not in scenario.vectors:
            _fail(f"{path}.vector", f"unknown vector {vec!r}")
    elif name == "multiplier":
        _require(cmd, "index_sets", path)
        wname = _require(cmd, "weights", path)
        if wname not in scenario.weights:
            _fail(f"{path}.weights", f"unknown weight matrix {wname!r}")
    elif name == "cone":
        frame_ref()
        wname = _require(cmd, "weights", path)
        if wname not in scenario.weights:
            _fail(f"{path}.weights", f"unknown weight matrix {wname!r}")
    elif name == "transport":
        frame_ref()
        mname = _require(cmd, "map", path)
        if mname not in scenario.maps:
            _fail(f"{path}.map", f"unknown map {mname!r}")
    elif name == "perturb":
        pname = _require(cmd, "perturbation", path)
        if pname not in scenario.perturbations:
            _fail(f"{path}.perturbation", f"unknown perturbation {pname!r}")
    if name == "verify-oracle":
        samples = cmd.get("samples", 200)
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
            _fail(f"{path}.samples", "samples must be a positive integer")


def build_scenario(raw: dict) -> Scenario:
    """Resolve a parsed scenario document, validating every reference."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario: expected a JSON object at top level")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _fail("seed", "seed must be a nonnegative integer")
    shape = _build_shape(raw)
    scenario = Scenario(raw=raw, seed=seed, shape=shape)

    for name, spec in raw.get("submodules", {}).items():
        scenario.submodules[name] = _build_submodule(name, spec, shape)

    for name, matrix in raw.get("weights", {}).items():
        path = f"weights.{name}"
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != shape.fiber_count:
            _fail(path, f"expected rows of {shape.fiber_count} positive reals")
        try:
            scenario.weights[name] = WeightSequence.from_matrix(shape.kind, arr)
        except CstarFusionError as exc:
            _fail(path, str(exc))

    for name, spec in raw.get("frames", {}).items():
        path = f"frames.{name}"
        sub_names = _require(spec, "submodules", path)
        weight_name = _require(spec, "weights", path)
        subs = []
        for sub_name in sub_names:
            if sub_name not in scenario.submodules:
                _fail(f"{path}.submodules", f"unknown submodule {sub_name!r}")
            subs.append(scenario.submodules[sub_name])
        if weight_name not in scenario.weights:
            _fail(f"{path}.weights", f"unknown weight matrix {weight_name!r}")
        try:
            scenario.frames[name] = WeightedFrame(subs, scenario.weights[weight_name])
        except CstarFusionError as exc:
            _fail(path, str(exc))

    for name, entries in raw.get("vectors", {}).items():
        scenario.vectors[name] = _build_vector(name, entries, shape)

    for name, spec in raw.get("maps", {}).items():
        scenario.maps[name] = _build_map(name, spec, shape)

    for name, spec in raw.get("perturbations", {}).items():
        path = f"perturbations.{name}"
        frame_name = _require(spec, "frame", path)
        if frame_name not in scenario.frames:
            _fail(f"{path}.frame", f"unknown frame {frame_name!r}")
        candidates = spec.get("candidates")
        rotate = spec.get("rotate")
        if (candidates is None) == (rotate is None):
            _fail(path, "need exactly one of candidates / rotate")
        if candidates is not None:
            for cand in candidates:
                if cand not in scenario.submodules:
                    _fail(f"{path}.candidates", f"unknown submodule {cand!r}")
            frame = scenario.frames[frame_name]
            if len(candidates) != len(frame):
                _fail(
                    f"{path}.candidates",
                    f"frame has {len(frame)} submodules, got {len(candidates)} candidates",
                )
            candidates = tuple(candidates)
        else:
            if "max_angle" not in rotate:
                _fail(f"{path}.rotate", "missing required key 'max_angle'")
            if rotate["max_angle"] < 0:
                _fail(f"{path}.rotate.max_angle", "must be nonnegative")
        scenario.perturbations[name] = PerturbationSpec(frame_name, candidates, rotate)

    commands = raw.get("commands", [])
    if not isinstance(commands, list):
        _fail("commands", "expected a list of command objects")
    for index, cmd in enumerate(commands):
        _check_command(cmd, index, scenario)
    scenario.commands = list(commands)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Parse and resolve a scenario file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return build_scenario(raw)
