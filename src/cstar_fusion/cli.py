"""Batch scenario runner.

Usage:
    cstar-fusion run <scenario-file> [--only CMD] [--out FILE] [--seed U64]
    cstar-fusion examples [--dir DIR]

``run`` executes the scenario's commands in order and emits one structured
report (stdout by default).  ``dump_json`` streams the report onto its
destination piece by piece, as UTF-8, so the whole text is never held in
memory.  The exit status is 0 exactly when no command errored; a false
verdict (not a frame, not guaranteed, ...) is an ordinary result.
``examples`` materializes the bundled demonstration scenarios into the
working directory.

Reports are deterministic: identical scenario and seed give byte-identical
output.  Every float is emitted with 17 significant digits and the report
embeds the resolved scenario configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import sys
import threading
from dataclasses import fields, is_dataclass
from itertools import chain, count, repeat
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .algebra import AlgebraElement
from .errors import CstarFusionError, ParseError, ValidationError
from .hilbert_module import ModuleVector
from .scenario import COMMANDS, Scenario, _levels, load_scenario

REPORT_VERSION = "cstar-fusion/1"


def _float(x: float) -> str:
    text = format(x, ".17g")  # spells an "n" only for nan and inf, emitted as strings
    return text if "n" not in text else '"' + repr(x) + '"'


def _string(s: str) -> str:
    # A lone surrogate has no UTF-8 form; it becomes a \udXXX escape, as JSON allows.
    return encode_basestring(s).encode("utf-8", "backslashreplace").decode()


_literal = {True: "true", False: "false", None: "null"}.get
_SCALARS = {bool: _literal, type(None): _literal, int: str, float: _float, str: _string}


def _nest_template(shape: list[int], indent: int, leaf: str = "%.17g") -> str:
    """The brackets, indents and separators of a nest of this shape, with
    ``leaf`` in place of each leaf (``%.17g`` gives the same digits as
    ``.17g``).  The text built so far is copied only at a depth that
    repeats it; the brackets of a one-item depth are kept aside and joined
    in once, so the work is linear in the template's length."""
    text, heads, tails = leaf, [], []  # the template so far: reversed heads, text, tails
    for depth in reversed(range(len(shape))):
        inner = "  " * (indent + depth + 1)
        if shape[depth] > 1:  # repeat the text so far, its brackets joined in
            text = "".join([*reversed(heads), text, *tails])
            heads, tails = [], []
            text = (",\n" + inner).join([text] * shape[depth])
        heads.append("[\n" + inner)
        tails.append("\n" + "  " * (indent + depth) + "]")
    return "".join([*reversed(heads), text, *tails])


def _whole(obj, indent: int, start):
    """(text, None) for a value that is not of an exact scalar type and is
    written in one piece: an empty container, a rectangular all-float nest
    (one printf, or one per leaf when a leaf is nan or inf) at nesting
    level ``indent``, or a scalar of a subclass.  (None, check) for a
    container whose items are written one by one, where ``check`` is
    where a list's nest check stopped (``scenario._levels``), or None.

    ``start`` is None, or the check of the list this one is an item of,
    narrowed to this list's part: the lists above its level are known to
    be rectangular, so the check resumes there and each list is opened
    once, however deep the nest."""
    if isinstance(obj, dict):
        return (None if obj else "{}"), None
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]", None
        shape, level, whole = _levels(*(start or ([], [obj])), {float})
        if not whole:
            return None, (shape, level)
        text = _nest_template(shape, indent) % tuple(level)
        if "n" in text:  # a nan or an inf, written as a string
            text = _nest_template(shape, indent, "%s") % tuple(map(_float, level))
        return text, None
    for kind, encode in _SCALARS.items():  # subclasses, such as np.float64
        if isinstance(obj, kind):
            return encode(obj), None
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, indent: int = 0, *, write=None) -> str | None:
    """Deterministic JSON with floats at 17 significant digits and sorted
    object keys, its first line at nesting level ``indent``.

    With ``write``, the text goes to it piece by piece, in order, and None is
    returned; without it, the text is returned whole.  The value is walked
    with an explicit stack, not by recursion, so every value ``json.loads``
    parses can be written, however deep, in time linear in the text.
    """
    pieces = []
    emit = pieces.append if write is None else write
    # The open containers, innermost last: (items, keyed, closing text,
    # below), below a list's nest check (shape below it, level, values per item).
    stack = []
    at = None  # where obj's part of its list's check starts, if it has one
    while True:
        depth = indent + len(stack)
        encode = _SCALARS.get(type(obj))  # most values: one lookup, no call
        if encode is not None:
            emit(encode(obj))
        else:
            start = None
            if at is not None:
                shape, level, stride = stack[-1][3]
                start = (shape, level[at : at + stride])
            text, check = _whole(obj, depth, start)
            if text is not None:
                emit(text)
            else:
                keyed = isinstance(obj, dict)
                opening, closing = "{}" if keyed else "[]"
                inner = "  " * (depth + 1)
                before = chain((opening + "\n" + inner,), repeat(",\n" + inner))
                offsets, below = repeat(None), None
                if check is not None:  # a list: its items resume its check
                    shape, level = check
                    below = (shape[1:], level, len(level) // shape[0])
                    offsets = count(0, below[2])
                items = sorted(obj.items()) if keyed else obj
                closing = "\n" + "  " * depth + closing
                stack.append((zip(items, before, offsets), keyed, closing, below))
        while stack:  # the next item, closing each container that has none left
            items, keyed, closing, _ = stack[-1]
            item = next(items, None)
            if item is not None:
                break
            stack.pop()
            emit(closing)
        else:
            return "".join(pieces) if write is None else None
        obj, before, at = item
        if keyed:
            key, obj = obj
            before += _string(str(key)) + ": "
        emit(before)


def _report_data(value):
    """A handler's output as report data; the one place library values are
    laid out (README, "Report format").  A result dataclass is the object of
    its fields, a dict's values are converted and other values pass."""
    if isinstance(value, AlgebraElement):
        return {"kind": value.kind, "data": value._rows().reshape(-1).tolist()}
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
    Each command that draws randomness draws it from a stream seeded by
    the effective seed and the command's position, so ``--only`` filtering
    does not change any individual result.
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
        try:
            output = COMMANDS[name].handler(scenario, cmd, [scenario.seed, index])
            entry["output"] = _report_data(output)
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


def _unwritable(where, exc: OSError) -> int:
    print(f"error: {where}: {exc.strerror}", file=sys.stderr)
    return 2


_STREAM_BUFFER = 1 << 16  # bytes; a terminal gets whole blocks, not one write per line


def _report_stream(out: Path | None):
    """The report's destination as one block-buffered UTF-8 text stream: the
    ``--out`` file, or a stream on stdout's file descriptor that leaves the
    descriptor open when it closes.  A stdout replaced in-process by one
    without a descriptor (a capture) is written to as it is."""
    if out is not None:
        return open(out, "w", buffering=_STREAM_BUFFER, encoding="utf-8")
    sys.stdout.flush()  # anything the caller printed first stays first
    try:
        fd = sys.stdout.fileno()
    except OSError:  # io.UnsupportedOperation, as from an io.StringIO, is an OSError
        return contextlib.nullcontext(sys.stdout)
    return open(fd, "w", buffering=_STREAM_BUFFER, encoding="utf-8", closefd=False)


# The collector's setting is one per process, so the count of runs in progress
# is too: the first run in pauses the collector, the last run out restores
# the setting the first one found.
_RUNS_LOCK = threading.Lock()
_runs_active = 0
_collector_was_enabled = False


def main(argv: list[str] | None = None) -> int:
    """Run the command line; returns the exit status.

    The cyclic garbage collector is paused for the run.  A run's data (the
    parsed scenario and the report) holds no reference cycle, so
    reference counting frees all of it when ``_main`` returns, before the
    collector resumes.  Left on, the collector would traverse the tens of
    thousands of JSON lists of a large scenario over and over while they
    are read, echoed and written, and never find one to free.  Overlapping
    calls from several threads share one pause, and the caller's setting
    is restored when the last of them returns.
    """
    global _runs_active, _collector_was_enabled
    with _RUNS_LOCK:
        if _runs_active == 0:
            _collector_was_enabled = gc.isenabled()
            gc.disable()
        _runs_active += 1
    try:
        return _main(argv)
    finally:
        with _RUNS_LOCK:
            _runs_active -= 1
            if _runs_active == 0 and _collector_was_enabled:
                gc.enable()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept: building it
    costs more than a short run and leaves reference cycles behind."""
    parser = argparse.ArgumentParser(prog="cstar-fusion", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_parser = sub.add_parser("run", help="execute a scenario file")
    run_parser.add_argument("scenario", type=Path)
    run_parser.add_argument("--only", default=None, help="run only this command")
    run_parser.add_argument("--out", type=Path, default=None, help="report file (default stdout)")
    run_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    examples_parser = sub.add_parser("examples", help="write the bundled example scenarios")
    examples_parser.add_argument("--dir", type=Path, default=Path("."))
    return parser


def _main(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)

    if args.subcommand == "examples":
        try:
            written = write_examples(args.dir)
        except OSError as exc:
            return _unwritable(exc.filename or args.dir, exc)
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
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:  # a write error carries no file name, so the destination is named here
        with _report_stream(args.out) as stream:
            dump_json(report, write=stream.write)
            stream.write("\n")
    except OSError as exc:
        return _unwritable("<stdout>" if args.out is None else args.out, exc)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
