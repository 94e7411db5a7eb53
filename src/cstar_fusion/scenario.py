"""Loading, validation and the commands of declarative scenario files.

A scenario is a JSON document naming an algebra, a module shape, submodules,
weight matrices, frames, maps, perturbations and a list of commands.  All
cross-references are resolved here; a dangling name or inconsistent shape
raises ValidationError with the offending key path, while malformed JSON
raises ParseError with the location reported by the parser.  ``COMMANDS``
declares each command's arguments, checked here, and its handler.
"""

from __future__ import annotations

import json
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .algebra import COMPLEX, QUATERNION
from .errors import CstarFusionError, ParseError, ValidationError
from .frame import WeightedFrame, WeightSequence, assemble_block_frame, block_multiplier_check
from .frame import ReconstructionResult, TightnessResult, cone_add, frame_bounds, reconstruct
from .frame import tightness
from .hilbert_module import ModuleShape, ModuleVector
from .morphism import OrthoMap, identity_rotations, transport_frame
from .oracle import verify_frame
from .perturbation import PerturbReport, perturbation_check, randomly_rotated
from .submodule import Submodule, _fiber_flags, block_submodule, span_submodule
from .submodule import validate_projection


@dataclass(frozen=True, slots=True)
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

    def with_seed(self, seed: int) -> "Scenario":
        """The same scenario under another seed, checked like the document's."""
        _check_seed(seed, "seed")
        return replace(self, raw={**self.raw, "seed": seed}, seed=seed)


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _require(data: dict, key: str, path: str):
    if key not in data:
        _fail(path, f"missing required key {key!r}")
    return data[key]


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected an object")
    return value


def _sequence(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or a float; an int too large to convert to a float is not one."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and not abs(value) > sys.float_info.max
    )


def _is_bit(value) -> bool:
    return _is_real(value) and value in (0, 1)


def _check_seed(value, path: str) -> None:
    if not _is_int(value) or value < 0:
        _fail(path, "seed must be a nonnegative integer")


def _integers(value, path: str) -> list[int]:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        _fail(path, "expected a list of integers")
    return value


def _reference(data: dict, key: str, path: str, table: dict, what: str) -> str:
    """The name stored under ``key``, which must name an entry of ``table``."""
    name = _require(data, key, path)
    if not isinstance(name, str) or name not in table:
        _fail(f"{path}.{key}", f"unknown {what} {name!r}")
    return name


def _section(raw: dict, key: str) -> dict:
    """A top-level table of named entries; absent means empty."""
    return _mapping(raw.get(key, {}), key)


def _nest(obj, leaf_types: set[type]) -> tuple[list[int], list] | None:
    """The shape and leaves of a rectangular nest of lists and tuples with
    no empty level whose leaves' types are all in ``leaf_types`` (exact
    types, so ``bool`` is never ``int``); else None.  Each depth is checked
    in one pass over all of its values."""
    shape, level = [], [obj]
    while True:
        kinds = set(map(type, level))
        if kinds and kinds <= leaf_types:
            return shape, level
        sizes = set(map(len, level)) if kinds <= {list, tuple} else ()
        if len(sizes) != 1:  # below an empty level there are no kinds, so no sizes
            return None
        shape.append(sizes.pop())
        level = list(chain.from_iterable(level))


def _reals(value, path: str, ndim: int, what: str) -> np.ndarray:
    """A rectangular nest of finite reals, ``ndim`` levels deep, as one float
    array; anything else fails at ``path`` with ``what``."""
    nest = _nest(value, {int, float})
    if nest is None or len(nest[0]) != ndim:
        _fail(path, what)
    try:
        arr = np.array(nest[1], dtype=float)
    except OverflowError:  # an int beyond the float range
        _fail(path, "entries must be finite")
    if not np.isfinite(arr).all():
        _fail(path, "entries must be finite")
    return arr.reshape(nest[0])


def _complexes(value, path: str, ndim: int, what: str) -> np.ndarray:
    """A rectangular nest of [re, im] pairs as one complex array of ``ndim``
    dimensions."""
    arr = _reals(value, path, ndim + 1, what)
    if arr.shape[-1] != 2:
        _fail(path, what)
    return arr[..., 0] + 1j * arr[..., 1]


def _per_fiber(convert, fibers: list, path: str, ndim: int, what: str):
    """Per-fiber data converted whole by ``convert``; when that fails, fiber
    by fiber, so that an error names its fiber.  An empty fiber stays an
    empty list."""
    try:
        return convert(fibers, path, ndim, what)
    except ValidationError:
        pass
    out = []
    for k, fiber in enumerate(fibers):
        at = f"{path}[{k}]"
        out.append(convert(fiber, at, ndim - 1, what) if _sequence(fiber, at) else [])
    return out


@contextmanager
def _library_errors_at(path: str):
    """Report an error the library raises inside the block at ``path``,
    followed by the error's ``key`` and ``[fiber]`` where it carries them."""
    try:
        yield
    except ValidationError:
        raise
    except (CstarFusionError, ValueError) as exc:
        key, fiber = getattr(exc, "key", None), getattr(exc, "fiber", None)
        at = path + ("" if key is None else f".{key}") + ("" if fiber is None else f"[{fiber}]")
        _fail(at, str(exc))


def _build_shape(raw: dict) -> ModuleShape:
    algebra = _mapping(_require(raw, "algebra", "scenario"), "algebra")
    kind = _require(algebra, "kind", "algebra")
    if kind not in (COMPLEX, QUATERNION):
        _fail("algebra.kind", f"unknown kind {kind!r}")
    fibers = _require(algebra, "fibers", "algebra")
    if not _is_int(fibers) or fibers < 1:
        _fail("algebra.fibers", "fiber count must be a positive integer")
    module = _mapping(raw.get("module", {}), "module")
    dims = _integers(module["dims"], "module.dims") if "dims" in module else [1] * fibers
    if len(dims) != fibers:
        _fail("module.dims", f"expected {fibers} entries, got {len(dims)}")
    with _library_errors_at("module.dims"):
        return ModuleShape(kind, tuple(dims))


def _build_submodule(name: str, spec: dict, shape: ModuleShape) -> Submodule:
    path = f"submodules.{name}"
    _mapping(spec, path)
    forms = [k for k in ("blocks", "selectors", "span", "projection") if k in spec]
    if len(forms) != 1:
        _fail(path, "need exactly one of blocks / selectors / span / projection")
    form = forms[0]
    at = f"{path}.{form}"
    with _library_errors_at(at):
        if form == "blocks":
            return block_submodule(shape, _integers(spec[form], at))
        entries = _sequence(spec[form], at)
        if len(entries) != shape.fiber_count:
            _fail(at, f"expected {shape.fiber_count} fibers")
        if form == "span":
            what = "expected a list of [re, im] pairs per vector"
            return span_submodule(shape, _per_fiber(_complexes, entries, at, 3, what))
        if form == "selectors" or shape.kind == QUATERNION:
            # a quaternion fiber's projection is a 0/1 selector
            for k, bit in enumerate(entries):
                if not _is_bit(bit):
                    _fail(f"{at}[{k}]", "selector bits must be 0 or 1")
            return block_submodule(shape, [k + 1 for k, b in enumerate(entries) if b == 1])
        what = "expected a row-major matrix of [re, im] entries"
        sub = Submodule(shape, _per_fiber(_complexes, entries, at, 3, what))
        if not validate_projection(sub):
            _fail(at, "not a Hermitian idempotent matrix in every fiber")
        return sub


def _build_vector(name: str, entries, shape: ModuleShape) -> ModuleVector:
    path = f"vectors.{name}"
    if len(_sequence(entries, path)) != shape.fiber_count:
        _fail(path, f"expected {shape.fiber_count} fibers")
    if shape.kind == COMPLEX:
        fibers = _per_fiber(_complexes, entries, path, 2, "expected a list of [re, im] pairs")
    else:
        fibers = _per_fiber(_reals, entries, path, 2, "expected a [w, x, y, z] row")
    with _library_errors_at(path):
        return ModuleVector(shape, fibers)


def _build_map(name: str, spec: dict, shape: ModuleShape) -> OrthoMap:
    path = f"maps.{name}"
    n = shape.fiber_count
    at = f"{path}.scales"
    scales = _mapping(spec, path).get("scales", [1.0] * n)
    scales = _reals(scales, at, 1, "expected a list of reals")
    if len(scales) != n:
        _fail(at, f"expected {n} fibers")
    rotations = spec.get("rotations")
    if rotations is None:
        rotations = identity_rotations(shape)
    else:
        if len(_sequence(rotations, f"{path}.rotations")) != n:
            _fail(f"{path}.rotations", f"expected {n} fibers")
        if shape.kind == COMPLEX:
            what = "expected a row-major matrix of [re, im] entries"
            rotations = _per_fiber(_complexes, rotations, f"{path}.rotations", 3, what)
        else:
            what = "expected a unit quaternion [w, x, y, z]"
            rotations = _per_fiber(_reals, rotations, f"{path}.rotations", 2, what)
    with _library_errors_at(path):
        return OrthoMap(shape, scales, rotations)


# -- commands ------------------------------------------------------------------


def _frame_report(frame: WeightedFrame) -> dict:
    """Bounds and tightness, as the frame decided them."""
    bounds = frame_bounds(frame)
    tight = bounds.tightness
    return {
        "is_frame": bounds.is_frame, "lower_bound": bounds.lower, "upper_bound": bounds.upper,
        "scalar_lower": bounds.scalar_lower, "scalar_upper": bounds.scalar_upper,
        "per_fiber": bounds.per_fiber,
        "tight": tight.tight, "parseval": tight.parseval, "constant": tight.constant,
    }


def _cmd_check_frame(scenario: Scenario, cmd: dict, rng) -> dict:
    bounds = frame_bounds(scenario.frames[cmd["frame"]])
    return {
        "is_frame": bounds.is_frame,
        "scalar_lower": bounds.scalar_lower,
        "scalar_upper": bounds.scalar_upper,
    }


def _cmd_bounds(scenario: Scenario, cmd: dict, rng) -> dict:
    return _frame_report(scenario.frames[cmd["frame"]])


def _cmd_reconstruct(scenario: Scenario, cmd: dict, rng) -> ReconstructionResult:
    return reconstruct(scenario.frames[cmd["frame"]], scenario.vectors[cmd["vector"]])


def _cmd_tightness(scenario: Scenario, cmd: dict, rng) -> TightnessResult:
    return tightness(scenario.frames[cmd["frame"]])


def _cmd_multiplier(scenario: Scenario, cmd: dict, rng) -> dict:
    index_sets, weights = cmd["index_sets"], scenario.weights[cmd["weights"]].matrix
    result = block_multiplier_check(index_sets, weights, scenario.shape.kind)
    bounds = frame_bounds(assemble_block_frame(scenario.shape.kind, index_sets, weights))
    agrees = result.member == bounds.is_frame
    if result.member and bounds.is_frame:
        constant = result.tight_constant.real_parts()
        agrees = all(np.array_equal(constant, b.real_parts()) for b in (bounds.lower, bounds.upper))
    return {
        "member": result.member, "tight_constant": result.tight_constant, "note": result.note,
        "assembled_scalar_lower": bounds.scalar_lower,
        "assembled_scalar_upper": bounds.scalar_upper,
        "agrees_with_frame_bounds": agrees,
    }


def _cmd_cone(scenario: Scenario, cmd: dict, rng) -> dict:
    summed = cone_add(scenario.frames[cmd["frame"]], scenario.weights[cmd["weights"]])
    return _frame_report(summed)


def _cmd_transport(scenario: Scenario, cmd: dict, rng) -> dict:
    mapping = scenario.maps[cmd["map"]]
    moved = transport_frame(mapping, scenario.frames[cmd["frame"]])
    return {"nu": mapping.nu(), "bounds": _frame_report(moved)}


def _cmd_perturb(scenario: Scenario, cmd: dict, rng) -> PerturbReport:
    spec = scenario.perturbations[cmd["perturbation"]]
    frame = scenario.frames[spec.frame]
    if spec.candidates is not None:
        candidates = [scenario.submodules[name] for name in spec.candidates]
    else:
        rotate_seed = spec.rotate.get("seed")
        if rotate_seed is None:
            # "surrogatepass" encodes a lone surrogate; other names encode as UTF-8
            name = cmd["perturbation"].encode("utf-8", "surrogatepass")
            stream = np.random.default_rng([scenario.seed, zlib.crc32(name)])
        else:
            stream = np.random.default_rng(rotate_seed)
        candidates = randomly_rotated(frame.submodules, spec.rotate["max_angle"], stream)
    return perturbation_check(frame, candidates, p=cmd.get("p", 2.0))


def _cmd_verify_oracle(scenario: Scenario, cmd: dict, rng) -> dict:
    return verify_frame(scenario.frames[cmd["frame"]], cmd.get("samples", 200), rng)


def _check_index_sets(cmd: dict, path: str, scenario: Scenario) -> None:
    index_sets = _sequence(_require(cmd, "index_sets", path), f"{path}.index_sets")
    for k, index_set in enumerate(index_sets):
        at = f"{path}.index_sets[{k}]"
        with _library_errors_at(at):
            _fiber_flags(scenario.shape.fiber_count, _integers(index_set, at))


def _check_weight_rows(cmd: dict, path: str, args: tuple[str, ...], scenario: Scenario) -> None:
    """One weight row per index set, or per submodule of the frame."""
    rows = len(scenario.weights[cmd["weights"]])
    sets = len(cmd["index_sets"]) if "index_sets" in args else rows
    if sets != rows:
        _fail(f"{path}.index_sets", f"weights have {rows} rows, got {sets} index sets")
    count = len(scenario.frames[cmd["frame"]]) if "frame" in args else rows
    if count != rows:
        _fail(f"{path}.weights", f"frame has {count} submodules, got {rows} weight rows")


def _check_p(cmd: dict, path: str, scenario: Scenario) -> None:
    p = cmd.get("p", 2.0)
    if p is not None and not (_is_real(p) and 1.0 < p < np.inf):
        _fail(f"{path}.p", "the exponent p must be a number in (1, inf) or null")


def _check_samples(cmd: dict, path: str, scenario: Scenario) -> None:
    samples = cmd.get("samples", 200)
    if not _is_int(samples) or samples < 1:
        _fail(f"{path}.samples", "samples must be a positive integer")


# A command argument is a reference, which must name an entry of a scenario
# section, or a value with its own check.
_REFERENCES = {
    "frame": ("frames", "frame"),
    "vector": ("vectors", "vector"),
    "weights": ("weights", "weight matrix"),
    "map": ("maps", "map"),
    "perturbation": ("perturbations", "perturbation"),
}
_CHECKS = {"index_sets": _check_index_sets, "p": _check_p, "samples": _check_samples}


@dataclass(frozen=True, slots=True)
class Command:
    """The arguments a command takes, checked in this order, and its handler."""

    args: tuple[str, ...]
    handler: Callable[[Scenario, dict, np.random.Generator], object]


COMMANDS = {
    "check-frame": Command(("frame",), _cmd_check_frame),
    "bounds": Command(("frame",), _cmd_bounds),
    "reconstruct": Command(("frame", "vector"), _cmd_reconstruct),
    "tightness": Command(("frame",), _cmd_tightness),
    "multiplier": Command(("index_sets", "weights"), _cmd_multiplier),
    "cone": Command(("frame", "weights"), _cmd_cone),
    "transport": Command(("frame", "map"), _cmd_transport),
    "perturb": Command(("perturbation", "p"), _cmd_perturb),
    "verify-oracle": Command(("frame", "samples"), _cmd_verify_oracle),
}


def _validate_command(cmd, path: str, scenario: Scenario) -> None:
    name = _require(_mapping(cmd, path), "run", path)
    if not isinstance(name, str) or name not in COMMANDS:
        _fail(path, f"unknown command {name!r}; expected one of {', '.join(COMMANDS)}")
    for arg in COMMANDS[name].args:
        if arg in _REFERENCES:
            section, what = _REFERENCES[arg]
            _reference(cmd, arg, path, getattr(scenario, section), what)
        else:
            _CHECKS[arg](cmd, path, scenario)
    if "weights" in COMMANDS[name].args:
        _check_weight_rows(cmd, path, COMMANDS[name].args, scenario)


def build_scenario(raw: dict) -> Scenario:
    """Resolve a parsed scenario document, validating every reference."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario: expected a JSON object at top level")
    seed = raw.get("seed", 0)
    _check_seed(seed, "seed")
    shape = _build_shape(raw)
    scenario = Scenario(raw=raw, seed=seed, shape=shape)

    for name, spec in _section(raw, "submodules").items():
        scenario.submodules[name] = _build_submodule(name, spec, shape)

    for name, matrix in _section(raw, "weights").items():
        path = f"weights.{name}"
        what = f"expected rows of {shape.fiber_count} positive reals"
        rows = _reals(matrix, path, 2, what)
        if rows.shape[1] != shape.fiber_count:
            _fail(path, what)
        with _library_errors_at(path):
            scenario.weights[name] = WeightSequence.from_matrix(shape.kind, rows)

    for name, spec in _section(raw, "frames").items():
        path = f"frames.{name}"
        sub_names = _require(_mapping(spec, path), "submodules", path)
        subs = []
        for sub_name in _sequence(sub_names, f"{path}.submodules"):
            if not isinstance(sub_name, str) or sub_name not in scenario.submodules:
                _fail(f"{path}.submodules", f"unknown submodule {sub_name!r}")
            subs.append(scenario.submodules[sub_name])
        weight_name = _reference(spec, "weights", path, scenario.weights, "weight matrix")
        with _library_errors_at(path):
            scenario.frames[name] = WeightedFrame(subs, scenario.weights[weight_name])

    for name, entries in _section(raw, "vectors").items():
        scenario.vectors[name] = _build_vector(name, entries, shape)

    for name, spec in _section(raw, "maps").items():
        scenario.maps[name] = _build_map(name, spec, shape)

    for name, spec in _section(raw, "perturbations").items():
        path = f"perturbations.{name}"
        frame_name = _reference(_mapping(spec, path), "frame", path, scenario.frames, "frame")
        candidates = spec.get("candidates")
        rotate = spec.get("rotate")
        if (candidates is None) == (rotate is None):
            _fail(path, "need exactly one of candidates / rotate")
        if candidates is not None:
            at = f"{path}.candidates"
            for cand in _sequence(candidates, at):
                if not isinstance(cand, str) or cand not in scenario.submodules:
                    _fail(at, f"unknown submodule {cand!r}")
            count = len(scenario.frames[frame_name])
            if len(candidates) != count:
                _fail(at, f"frame has {count} submodules, got {len(candidates)} candidates")
            candidates = tuple(candidates)
        else:
            angle = _require(_mapping(rotate, f"{path}.rotate"), "max_angle", f"{path}.rotate")
            if not (_is_real(angle) and 0 <= angle < np.inf):
                _fail(f"{path}.rotate.max_angle", "must be a finite nonnegative number")
            if rotate.get("seed") is not None:
                _check_seed(rotate["seed"], f"{path}.rotate.seed")
        scenario.perturbations[name] = PerturbationSpec(frame_name, candidates, rotate)

    commands = raw.get("commands", [])
    if not isinstance(commands, list):
        _fail("commands", "expected a list of command objects")
    for index, cmd in enumerate(commands):
        _validate_command(cmd, f"commands[{index}]", scenario)
    scenario.commands = list(commands)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Parse and resolve a scenario file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply to parse") from None
    return build_scenario(raw)
