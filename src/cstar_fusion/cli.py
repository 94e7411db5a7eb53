"""Batch scenario runner.

Usage:
    cstar-fusion run <scenario-file> [--only CMD] [--out FILE] [--seed U64]
    cstar-fusion examples [--dir DIR]

``run`` executes the scenario's commands in order and emits one structured
report (stdout by default).  The exit status is 0 exactly when no command
errored; a false verdict (not a frame, not guaranteed, ...) is an ordinary
result.  ``examples`` materializes the bundled demonstration scenarios into
the working directory.

Reports are deterministic: identical scenario and seed give byte-identical
output.  Every float is emitted with 17 significant digits and the report
embeds the resolved scenario configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement
from .errors import CstarFusionError, ParseError, ValidationError
from .hilbert_module import ModuleVector
from .scenario import COMMANDS, Scenario, _nest, load_scenario

REPORT_VERSION = "cstar-fusion/1"


def _float(x: float) -> str:
    text = format(x, ".17g")  # spells an "n" only for nan and inf, emitted as strings
    return text if "n" not in text else '"' + repr(x) + '"'


def _string(s: str) -> str:
    # A lone surrogate has no UTF-8 form; it becomes a \udXXX escape, as JSON allows.
    return encode_basestring(s).encode("utf-8", "backslashreplace").decode()


_literal = {True: "true", False: "false", None: "null"}.get
_SCALARS = {bool: _literal, type(None): _literal, int: str, float: _float, str: _string}


def _nest_template(shape: list[int], indent: int) -> str:
    """The brackets, indents and separators of a nest of this shape, with a
    ``%.17g`` (the same digits as ``.17g``) in place of each leaf."""
    text = "%.17g"
    for depth in reversed(range(len(shape))):
        inner = "  " * (indent + depth + 1)
        body = (",\n" + inner).join([text] * shape[depth])
        text = "[\n" + inner + body + "\n" + "  " * (indent + depth) + "]"
    return text


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits and sorted
    object keys."""
    encode = _SCALARS.get(type(obj))
    if encode is not None:
        return encode(obj)
    if isinstance(obj, (dict, list, tuple)) and not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = "  " * (indent + 1)
    sep = ",\n" + inner
    if isinstance(obj, dict):
        items = [f"{dump_json(str(k))}: {dump_json(v, indent + 1)}" for k, v in sorted(obj.items())]
        return f"{{\n{inner}{sep.join(items)}\n{'  ' * indent}}}"
    if isinstance(obj, (list, tuple)):
        nest = _nest(obj, {float})
        if nest is not None:  # all floats: one printf; an "n" is nan or inf
            text = _nest_template(nest[0], indent) % tuple(nest[1])
            if "n" not in text:
                return text
        body = sep.join([dump_json(v, indent + 1) for v in obj])
        return f"[\n{inner}{body}\n{'  ' * indent}]"
    for kind, encode in _SCALARS.items():  # subclasses, such as np.float64
        if isinstance(obj, kind):
            return encode(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _report_data(value):
    """A handler's output as report data; the one place library values are
    laid out (README, "Report format").  A result dataclass is the object of
    its fields, a dict's values are converted and other values pass."""
    if isinstance(value, AlgebraElement):
        return {"kind": value.kind, "data": value.fibers.reshape(-1).view(float).tolist()}
    if isinstance(value, ModuleVector):
        data = np.concatenate(value.fibers).view(float).tolist()
        return {"kind": value.shape.kind, "dims": list(value.shape.dims), "data": data}
    if is_dataclass(value):
        return {f.name: _report_data(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _report_data(item) for key, item in value.items()}
    return value


def run_scenario(
    scenario: Scenario, only: str | None = None, seed: int | None = None
) -> tuple[dict, bool]:
    """Execute the scenario's commands and build the report, plain JSON data.

    Returns the report and a flag that is True when no command errored.
    Each command draws randomness from a stream derived from the effective
    seed and the command's position, so ``--only`` filtering does not
    change any individual result.
    """
    if seed is not None:
        scenario = scenario.with_seed(seed)
    results = []
    ok = True
    for index, cmd in enumerate(scenario.commands):
        name = cmd["run"]
        if only is not None and name != only:
            continue
        entry = {"index": index, "command": name}
        entry.update({k: v for k, v in cmd.items() if k != "run"})
        rng = np.random.default_rng([scenario.seed, index])
        try:
            entry["output"] = _report_data(COMMANDS[name].handler(scenario, cmd, rng))
        except CstarFusionError as exc:
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            ok = False
        results.append(entry)
    report = {
        "version": REPORT_VERSION,
        "seed": scenario.seed,
        "scenario": scenario.raw,
        "results": results,
        "ok": ok,
    }
    return report, ok


# -- bundled example scenarios ----------------------------------------------


def _unit_vector(m: int, index: int) -> list[list[float]]:
    return [[1.0 if i == index else 0.0, 0.0] for i in range(m)]


def _example_block_tight(kind: str) -> dict:
    if kind == "complex":
        probe = [[[1, 0]], [[2, 0]], [[0, 1]]]
    else:
        probe = [[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0]]
    return {
        "seed": 2024,
        "algebra": {"kind": kind, "fibers": 3},
        "module": {"dims": [1, 1, 1]},
        "submodules": {"u1": {"blocks": [1, 2]}, "u2": {"blocks": [2, 3]}},
        "weights": {"ones": [[1, 1, 1], [1, 1, 1]], "double": [[2, 2, 2], [2, 2, 2]]},
        "frames": {"f": {"submodules": ["u1", "u2"], "weights": "ones"}},
        "vectors": {"x": probe},
        "commands": [
            {"run": "check-frame", "frame": "f"},
            {"run": "bounds", "frame": "f"},
            {"run": "tightness", "frame": "f"},
            {"run": "reconstruct", "frame": "f", "vector": "x"},
            {"run": "multiplier", "index_sets": [[1, 2], [2, 3]], "weights": "ones"},
            {"run": "cone", "frame": "f", "weights": "double"},
            {"run": "verify-oracle", "frame": "f", "samples": 200},
        ],
    }


def _example_angle_counterexample() -> dict:
    m = 8
    u0 = [_unit_vector(m, i) for i in (3, 7)]
    v0 = [_unit_vector(m, i) for i in (1, 3, 5, 7)]
    u0_perp = [_unit_vector(m, i) for i in (0, 1, 2, 4, 5, 6)]
    v0_perp = [_unit_vector(m, i) for i in (0, 2, 4, 6)]
    return {
        "seed": 7,
        "algebra": {"kind": "complex", "fibers": 1},
        "module": {"dims": [m]},
        "submodules": {
            "u0": {"span": [u0]},
            "v0": {"span": [v0]},
            "u0_perp": {"span": [u0_perp]},
            "v0_perp": {"span": [v0_perp]},
        },
        "weights": {"ones": [[1], [1]]},
        "frames": {"f": {"submodules": ["u0", "u0_perp"], "weights": "ones"}},
        "perturbations": {"swap": {"frame": "f", "candidates": ["v0", "v0_perp"]}},
        "commands": [
            {"run": "bounds", "frame": "f"},
            {"run": "perturb", "perturbation": "swap"},
        ],
    }


def _example_perturbation_demo() -> dict:
    inv = 2.0 ** -0.5
    return {
        "seed": 99,
        "algebra": {"kind": "complex", "fibers": 1},
        "module": {"dims": [2]},
        "submodules": {
            "s1": {"span": [[[[1, 0], [0, 0]]]]},
            "s2": {"span": [[[[0, 0], [1, 0]]]]},
            "s3": {"span": [[[[inv, 0], [inv, 0]]]]},
        },
        "weights": {"ones": [[1], [1], [1]]},
        "frames": {"f": {"submodules": ["s1", "s2", "s3"], "weights": "ones"}},
        "vectors": {"x": [[[1, 0], [0, 0]]]},
        "maps": {"stretch": {"scales": [2]}},
        "perturbations": {"wiggle": {"frame": "f", "rotate": {"max_angle": 0.3}}},
        "commands": [
            {"run": "bounds", "frame": "f"},
            {"run": "reconstruct", "frame": "f", "vector": "x"},
            {"run": "transport", "frame": "f", "map": "stretch"},
            {"run": "perturb", "perturbation": "wiggle"},
            {"run": "verify-oracle", "frame": "f", "samples": 200},
        ],
    }


EXAMPLE_SCENARIOS = {
    "block_tight.json": _example_block_tight("complex"),
    "quaternion_tight.json": _example_block_tight("quaternion"),
    "angle_counterexample.json": _example_angle_counterexample(),
    "perturbation_demo.json": _example_perturbation_demo(),
}


def write_examples(directory: str | Path) -> list[Path]:
    """Materialize the bundled scenarios; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in EXAMPLE_SCENARIOS.items():
        target = directory / name
        target.write_text(dump_json(doc) + "\n")
        written.append(target)
    return written


def _unwritable(exc: OSError) -> int:
    print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cstar-fusion", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_parser = sub.add_parser("run", help="execute a scenario file")
    run_parser.add_argument("scenario", type=Path)
    run_parser.add_argument("--only", default=None, help="run only this command")
    run_parser.add_argument("--out", type=Path, default=None, help="report file (default stdout)")
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    examples_parser = sub.add_parser("examples", help="write the bundled example scenarios")
    examples_parser.add_argument("--dir", type=Path, default=Path("."))

    args = parser.parse_args(argv)

    if args.subcommand == "examples":
        try:
            written = write_examples(args.dir)
        except OSError as exc:
            return _unwritable(exc)
        for path in written:
            print(path)
        return 0

    if args.only is not None and args.only not in COMMANDS:
        expected = ", ".join(COMMANDS)  # in the scenario validator's order
        print(f"error: --only: unknown command {args.only!r}; expected one of {expected}",
              file=sys.stderr)
        return 2
    try:
        scenario = load_scenario(args.scenario)
        report, ok = run_scenario(scenario, only=args.only, seed=args.seed)
        text = dump_json(report) + "\n"
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # dump_json recurses once per level of the echoed scenario
        print(f"error: {args.scenario}: nested too deeply to write the report", file=sys.stderr)
        return 2
    if args.out is not None:
        try:
            args.out.write_text(text)
        except OSError as exc:
            return _unwritable(exc)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
