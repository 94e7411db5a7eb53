"""End-to-end tests for the scenario runner."""

import argparse
import contextlib
import errno
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstar_fusion
from cstar_fusion import (
    COMPLEX, ModuleShape, ModuleVector, ParseError, ValidationError, cli, span_submodule,
)
from cstar_fusion.cli import EXAMPLE_SCENARIOS, dump_json, main, run_scenario, write_examples
from cstar_fusion.scenario import build_scenario, load_scenario
from helpers import peak_bytes

ROOT = Path(__file__).resolve().parents[1]
BLOCK_SCENARIO = {
    "seed": 5,
    "algebra": {"kind": "complex", "fibers": 3},
    "submodules": {"u1": {"blocks": [1, 2]}, "u2": {"blocks": [2, 3]}},
    "weights": {"ones": [[1, 1, 1], [1, 1, 1]], "twos": [[2, 2, 2], [2, 2, 2]]},
    "frames": {"f": {"submodules": ["u1", "u2"], "weights": "ones"}},
    "vectors": {"x": [[[1, 0]], [[2, 0]], [[0, 1]]]},
    "commands": [
        {"run": "check-frame", "frame": "f"},
        {"run": "bounds", "frame": "f"},
        {"run": "tightness", "frame": "f"},
        {"run": "reconstruct", "frame": "f", "vector": "x"},
        {"run": "multiplier", "index_sets": [[1, 2], [2, 3]], "weights": "ones"},
        {"run": "cone", "frame": "f", "weights": "twos"},
        {"run": "verify-oracle", "frame": "f", "samples": 50},
    ],
}

# One fiber uncovered: tightness refuses, and the run exits 1.
FAILING_COMMAND = {
    "algebra": {"kind": "complex", "fibers": 2},
    "submodules": {"u": {"blocks": [1]}},
    "weights": {"w": [[1, 1]]},
    "frames": {"f": {"submodules": ["u"], "weights": "w"}},
    "commands": [{"run": "tightness", "frame": "f"}],
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def write_bytes(tmp_path, data: bytes):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    return path


def _cli(argv, env=os.environ, **streams) -> subprocess.CompletedProcess:
    """``cstar-fusion`` with these arguments in a fresh process; its stdout
    and stderr are captured as bytes unless ``streams`` names them."""
    env = dict(env, PYTHONPATH=str(Path(cstar_fusion.__file__).parents[1]))
    streams = streams or {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    return subprocess.run(
        [sys.executable, "-m", "cstar_fusion.cli", *map(str, argv)], env=env, timeout=120, **streams
    )


def reference_dump_json(obj, indent: int = 0) -> str:
    """The report encoder as it was before its per-type fast paths, kept as
    the reference for the bytes of every report."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{reference_dump_json(str(k))}: {reference_dump_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{reference_dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not np.isfinite(obj):
            return '"' + repr(obj) + '"'
        return format(obj, ".17g")
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# Report values: every float kind the encoder distinguishes, and strings
# without control characters or lone surrogates (which have no UTF-8 form),
# where the reference escaping is complete.
TEXT = st.text(st.characters(min_codepoint=0x20, codec="utf-8"))
FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e308, 0.1, float("nan"), float("inf"), float("-inf")]
)
SCALARS = (
    FLOATS
    | FLOATS.map(np.float64)
    | st.integers()
    | st.booleans()
    | st.none()
    | TEXT
)


def _nest(leaves: list, shape: list[int], kinds) -> list | tuple:
    """The leaves, row-major, as a nest of this shape; ``kinds`` yields
    each container's type in turn."""
    if not shape:
        return leaves[0]
    step = len(leaves) // shape[0]
    kind = next(kinds)
    return kind(_nest(leaves[i * step : (i + 1) * step], shape[1:], kinds) for i in range(shape[0]))


def _deepest_rows(nest: list) -> list[list]:
    """The innermost lists of a nest built from lists only."""
    level = [nest]
    while isinstance(level[0][0], list):
        level = [row for node in level for row in node]
    return level


def _ragged_deepest(nest: list) -> list:
    _deepest_rows(nest)[-1].append(0.25)
    return nest


def _ragged_outermost(nest: list) -> list:
    nest[-1] = nest[-1][:-1] or nest[-1] * 2
    return nest


def _empty_inner(nest: list) -> list:
    _deepest_rows(nest)[0].clear()
    return nest


def _with_leaf(leaf):
    def edit(nest: list) -> list:
        _deepest_rows(nest)[-1][-1] = leaf
        return nest

    return edit


# Leaves that take a rectangular nest off the one-printf path, and -0.0,
# which stays on it with a sign the printf must keep.
ODD_LEAVES = [3, True, np.float64(0.5), float("nan"), float("inf"), float("-inf"), -0.0]


@st.composite
def float_nests(draw, min_depth=1, containers=st.sampled_from([list, tuple]), odd_leaf=None):
    """Rectangular nests of depth min_depth..4 built from lists and tuples,
    with float leaves, one of them drawn from ``odd_leaf`` if given."""
    shape = draw(st.lists(st.integers(1, 3), min_size=min_depth, max_size=4))
    size = int(np.prod(shape))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    leaves = draw(st.lists(finite, min_size=size, max_size=size))
    if odd_leaf is not None:
        leaves[draw(st.integers(0, size - 1))] = draw(odd_leaf)
    kinds = draw(st.lists(containers, min_size=40, max_size=40))  # 1 + 3 + 9 + 27 containers
    return _nest(leaves, shape, iter(kinds))


LIST_NESTS = float_nests(min_depth=2, containers=st.just(list))
NESTS = (
    float_nests()
    | float_nests(odd_leaf=st.sampled_from(ODD_LEAVES))
    | LIST_NESTS.map(_ragged_deepest)
    | LIST_NESTS.map(_ragged_outermost)
    | LIST_NESTS.map(_empty_inner)
)
DOCUMENTS = st.recursive(
    SCALARS | NESTS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(FLOATS)
    | st.dictionaries(TEXT, inner),
    max_leaves=20,
)


class TestDumpJson:
    def test_sorted_keys_and_float_digits(self):
        text = dump_json({"b": 1 / 3, "a": True, "c": [1, None]})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.33333333333333331" in text

    def test_string_escaping(self):
        assert dump_json('he said "hi"\n') == '"he said \\"hi\\"\\n"'

    def test_control_characters_are_escaped(self):
        text = "".join(map(chr, range(0x20)))
        encoded = dump_json(text)
        assert json.loads(encoded) == text
        assert encoded.startswith('"\\u0000\\u0001') and "\\b\\t\\n\\u000b\\f\\r" in encoded

    def test_report_with_control_characters_is_valid_json(self, tmp_path):
        doc = json.loads(json.dumps(BLOCK_SCENARIO))
        doc["frames"] = {"f\tg": doc["frames"]["f"]}
        for cmd in doc["commands"]:
            if "frame" in cmd:
                cmd["frame"] = "f\tg"
        out = tmp_path / "report.json"
        assert main(["run", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["results"][0]["frame"] == "f\tg"

    def test_lone_surrogate_is_written_as_its_escape(self, tmp_path):
        doc = dict(BLOCK_SCENARIO, note="a\ud800b")
        out = tmp_path / "report.json"
        assert main(["run", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        assert '"note": "a\\ud800b"' in out.read_text()
        assert json.loads(out.read_text())["scenario"]["note"] == "a\ud800b"

    @settings(max_examples=200, deadline=None)
    @given(DOCUMENTS)
    def test_matches_the_reference_encoder(self, doc):
        assert dump_json(doc) == reference_dump_json(doc)

    @staticmethod
    def _base() -> list:
        return [[[0.5, 1.5], [2.5, -3.0]], [[4.0, 5e-324], [1e308, 0.1]]]

    @pytest.mark.parametrize(
        "edit",
        [lambda nest: nest]
        + [_with_leaf(leaf) for leaf in ODD_LEAVES]
        + [_ragged_deepest, _ragged_outermost, _empty_inner]
        + [lambda nest: (tuple(nest[0]), nest[1])]
        + [lambda nest: [nest[0], tuple(map(tuple, nest[1]))]],
        ids=["rectangular"]
        + [f"leaf {leaf!r}" for leaf in ODD_LEAVES]
        + ["ragged deepest", "ragged outermost", "empty inner list", "tuple row", "tuple rows"],
    )
    def test_near_misses_match_the_reference_encoder(self, edit):
        nest = edit(self._base())
        for doc in (nest, {"a": {"b": nest}}, [nest, 1], [[nest]]):
            assert dump_json(doc) == reference_dump_json(doc)
        assert dump_json(nest, 3) == reference_dump_json(nest, 3)

    @pytest.mark.parametrize("name", sorted(EXAMPLE_SCENARIOS))
    def test_bundled_reports_match_the_reference_encoder(self, name):
        doc = EXAMPLE_SCENARIOS[name]
        report, ok = run_scenario(build_scenario(doc))
        assert ok
        assert dump_json(doc) == reference_dump_json(doc)
        assert dump_json(report) == reference_dump_json(report)

    def test_roundtrips_through_json(self):
        report, _ = run_scenario(build_scenario(BLOCK_SCENARIO))
        parsed = json.loads(dump_json(report))
        assert parsed["version"] == "cstar-fusion/1"


class TestRunScenario:
    def test_block_scenario_results(self):
        scenario = build_scenario(BLOCK_SCENARIO)
        report, ok = run_scenario(scenario)
        assert ok
        assert report["version"] == "cstar-fusion/1"
        assert report["scenario"] == BLOCK_SCENARIO
        by_command = {entry["command"]: entry["output"] for entry in report["results"]}
        assert by_command["check-frame"]["is_frame"]
        assert by_command["bounds"]["scalar_lower"] == pytest.approx(1.0)
        assert by_command["bounds"]["scalar_upper"] == pytest.approx(2.0)
        assert by_command["tightness"]["tight"]
        constant = by_command["tightness"]["constant"]["data"]
        np.testing.assert_allclose(constant[::2], [1, np.sqrt(2), 1], atol=1e-12)
        assert by_command["reconstruct"]["rel_error"] <= 1e-12
        assert by_command["multiplier"]["member"]
        assert by_command["multiplier"]["agrees_with_frame_bounds"]
        # weights 1 + 2 = 3 on a (1, sqrt2, 1)-tight family: bounds scale by 3
        assert by_command["cone"]["scalar_lower"] == pytest.approx(9.0)
        assert by_command["verify-oracle"]["matches_bounds"]
        assert by_command["verify-oracle"]["sample_check"]

    def test_only_filter(self):
        scenario = build_scenario(BLOCK_SCENARIO)
        report, ok = run_scenario(scenario, only="bounds")
        assert ok
        assert [entry["command"] for entry in report["results"]] == ["bounds"]
        # the surviving entry keeps its index in the full command list
        assert report["results"][0]["index"] == 1

    def test_seed_override(self):
        scenario = build_scenario(BLOCK_SCENARIO)
        report, _ = run_scenario(scenario, seed=77)
        assert report["seed"] == 77
        assert report["scenario"]["seed"] == 77

    def test_false_verdict_is_not_an_error(self):
        doc = {
            "algebra": {"kind": "complex", "fibers": 2},
            "submodules": {"u": {"blocks": [1]}},
            "weights": {"w": [[1, 1]]},
            "frames": {"f": {"submodules": ["u"], "weights": "w"}},
            "commands": [{"run": "check-frame", "frame": "f"}],
        }
        report, ok = run_scenario(build_scenario(doc))
        assert ok
        assert not report["results"][0]["output"]["is_frame"]

    def test_command_error_sets_flag(self):
        report, ok = run_scenario(build_scenario(FAILING_COMMAND))
        assert not ok
        assert report["results"][0]["error"]["type"] == "NotAFrame"

    def test_perturb_with_rotation_spec_is_reproducible(self):
        doc = {
            "seed": 11,
            "algebra": {"kind": "complex", "fibers": 1},
            "module": {"dims": [2]},
            "submodules": {
                "a": {"span": [[[[1, 0], [0, 0]]]]},
                "b": {"span": [[[[0, 0], [1, 0]]]]},
            },
            "weights": {"w": [[1], [1]]},
            "frames": {"f": {"submodules": ["a", "b"], "weights": "w"}},
            "perturbations": {"p": {"frame": "f", "rotate": {"max_angle": 0.2}}},
            "commands": [{"run": "perturb", "perturbation": "p"}],
        }
        first, _ = run_scenario(build_scenario(doc))
        second, _ = run_scenario(build_scenario(doc))
        assert dump_json(first) == dump_json(second)
        output = first["results"][0]["output"]
        assert output["guaranteed"]
        assert output["ecart"] < output["threshold"]


class TestValidation:
    def test_dangling_weight_name(self):
        doc = {
            "algebra": {"kind": "complex", "fibers": 2},
            "submodules": {"u": {"blocks": [1, 2]}},
            "weights": {"w": [[1, 1]]},
            "frames": {"f": {"submodules": ["u"], "weights": "missing"}},
        }
        with pytest.raises(ValidationError, match="frames.f.weights"):
            build_scenario(doc)

    def test_dangling_submodule_name(self):
        doc = {
            "algebra": {"kind": "complex", "fibers": 2},
            "weights": {"w": [[1, 1]]},
            "frames": {"f": {"submodules": ["ghost"], "weights": "w"}},
        }
        with pytest.raises(ValidationError, match="frames.f.submodules"):
            build_scenario(doc)

    def test_unknown_command(self):
        doc = {
            "algebra": {"kind": "complex", "fibers": 1},
            "commands": [{"run": "explode"}],
        }
        with pytest.raises(ValidationError, match=r"commands\[0\]"):
            build_scenario(doc)

    def test_bad_weight_values(self):
        doc = {
            "algebra": {"kind": "complex", "fibers": 2},
            "weights": {"w": [[1, 0]]},
        }
        with pytest.raises(ValidationError, match="weights.w"):
            build_scenario(doc)

    def test_wrong_dims_length(self):
        doc = {"algebra": {"kind": "complex", "fibers": 2}, "module": {"dims": [1]}}
        with pytest.raises(ValidationError, match="module.dims"):
            build_scenario(doc)

    @pytest.mark.parametrize(
        "kind, projection, path",
        [
            ("complex", [[[[2, 0], [0, 0]], [[0, 0], [5, 0]]]], r"submodules\.p\.projection"),
            ("complex", [[[[1, 0], [1, 0]], [[0, 0], [0, 0]]]], r"submodules\.p\.projection"),
            ("complex", [[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]], r"submodules\.p"),
            ("quaternion", [1, 2], r"submodules\.p\.projection\[1\]"),
        ],
    )
    def test_declared_projection_must_be_one(self, kind, projection, path):
        # diag(2, 5) and a non-Hermitian idempotent are not orthogonal projections
        dims = [2] if kind == "complex" else [1, 1]
        doc = {
            "algebra": {"kind": kind, "fibers": len(dims)},
            "module": {"dims": dims},
            "submodules": {"p": {"projection": projection}},
        }
        with pytest.raises(ValidationError, match=path):
            build_scenario(doc)

    @staticmethod
    def span_doc(span, dims):
        return {
            "algebra": {"kind": "complex", "fibers": len(dims)},
            "module": {"dims": dims},
            "submodules": {"s": {"span": span}},
        }

    @staticmethod
    def pairs_to_complex(pairs):
        arr = np.asarray(pairs, dtype=float)
        return arr[:, 0] + 1j * arr[:, 1]

    @pytest.mark.parametrize("ragged", [False, True], ids=["rectangular", "ragged"])
    def test_span_matches_per_vector_conversion(self, ragged):
        # A rectangular span spec is converted as one array, a ragged one
        # vector by vector; both must give the per-vector projections.
        rng = np.random.default_rng(21)
        counts = [1, 3, 2, 0, 2] if ragged else [2] * 5
        span = [rng.normal(size=(c, 3, 2)).tolist() for c in counts]
        scenario = build_scenario(self.span_doc(span, [3] * 5))
        vectors = [[self.pairs_to_complex(v) for v in fiber] for fiber in span]
        want = span_submodule(ModuleShape(COMPLEX, (3,) * 5), vectors)
        assert np.array_equal(scenario.submodules["s"].blocks[3], want.blocks[3])

    def test_complex_vector_matches_per_fiber_conversion(self):
        rng = np.random.default_rng(22)
        entries = rng.normal(size=(4, 3, 2)).tolist()
        doc = {"algebra": {"kind": "complex", "fibers": 4}, "module": {"dims": [3] * 4},
               "vectors": {"x": entries}}
        got = build_scenario(doc).vectors["x"]
        want = ModuleVector(ModuleShape(COMPLEX, (3,) * 4), [self.pairs_to_complex(f) for f in entries])
        assert np.array_equal(got.blocks[3], want.blocks[3])

    @pytest.mark.parametrize(
        "counts, bad_at, message",
        [
            ([2, 2, 2, 2, 2], (3, 1, 0, 1), r"submodules\.s\.span\[3\]: entries must be finite"),
            ([1, 3, 2, 2, 1], (3, 1, 2, 0), r"submodules\.s\.span\[3\]: entries must be finite"),
            ([1, 3, 2, 2, 1], (2, 0), r"submodules\.s\.span\[2\]: expected a list of \[re, im\]"),
            ([2, 2, 2, 2, 2], (4,), r"submodules\.s\.span\[4\]: expected a list$"),
        ],
        ids=["nan-rectangular", "nan-ragged", "vector-not-pairs", "fiber-not-a-list"],
    )
    def test_span_error_keeps_its_key_path(self, counts, bad_at, message):
        span = [np.ones((c, 3, 2)).tolist() for c in counts]
        node = span
        for key in bad_at[:-1]:
            node = node[key]
        node[bad_at[-1]] = float("nan") if len(bad_at) == 4 else 7
        with pytest.raises(ValidationError, match=message):
            build_scenario(self.span_doc(span, [3] * 5))

    def test_span_length_mismatch_keeps_its_message(self):
        span = [np.ones((1, 2, 2)).tolist()] * 2
        with pytest.raises(ValidationError, match=r"submodules\.s\.span\[0\]: fiber 0 span vector has length 2, expected 3"):
            build_scenario(self.span_doc(span, [3, 3]))

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"algebra": ')
        with pytest.raises(ParseError, match="line 1"):
            load_scenario(path)


class TestMainEntry:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BLOCK_SCENARIO)
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ok"]

    def test_run_to_stdout(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BLOCK_SCENARIO)
        assert main(["run", str(path)]) == 0
        assert '"version": "cstar-fusion/1"' in capsys.readouterr().out

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        doc = dict(BLOCK_SCENARIO, frames={"f": {"submodules": ["u1"], "weights": "nope"}})
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == 2
        assert "frames.f.weights" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda doc: doc["algebra"].update(fibers=True), "algebra.fibers"),
            (lambda doc: doc.update(seed=True), "seed"),
            (lambda doc: doc["commands"][-1].update(samples=True), "commands[6].samples"),
        ],
        ids=["fibers", "seed", "samples"],
    )
    def test_bool_is_not_an_integer(self, tmp_path, capsys, edit, path):
        doc = json.loads(json.dumps(BLOCK_SCENARIO))
        edit(doc)
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
        assert f"error: {path}:" in capsys.readouterr().err

    def test_a_huge_quaternion_rotation_states_its_finite_defect(self, tmp_path, capsys):
        # Its squared length overflows; the length itself is 1e200.
        doc = {
            "algebra": {"kind": "quaternion", "fibers": 1},
            "module": {"dims": [1]},
            "maps": {"m": {"scales": [1], "rotations": [[1e200, 0, 0, 0]]}},
            "commands": [],
        }
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: maps.m.rotations[0]: fiber 0 rotation is not unitary (defect 1.00e+200)\n"
        )

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda doc: doc.update(commands=[5]), "commands[0]"),
            (lambda doc: doc.update(commands=["run"]), "commands[0]"),
            (lambda doc: doc.update(submodules=[1, 2]), "submodules"),
            (
                lambda doc: doc.update(
                    perturbations={"p": {"frame": "f", "rotate": {"max_angle": "x"}}}
                ),
                "perturbations.p.rotate.max_angle",
            ),
            (lambda doc: doc["commands"][4].update(index_sets=5), "commands[4].index_sets"),
        ],
        ids=["command-int", "command-str", "submodules-list", "max-angle-str", "index-sets-int"],
    )
    def test_malformed_shape_exit_code(self, tmp_path, capsys, edit, path):
        doc = json.loads(json.dumps(BLOCK_SCENARIO))
        edit(doc)
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "example, edit, path",
        [
            (
                "perturbation_demo.json",
                lambda doc: doc["commands"][3].update(p=0.5),
                "commands[3].p",
            ),
            (
                "perturbation_demo.json",
                lambda doc: doc["perturbations"]["wiggle"]["rotate"].update(seed=-1),
                "perturbations.wiggle.rotate.seed",
            ),
            (
                "perturbation_demo.json",
                lambda doc: doc["submodules"]["s3"]["span"][0][0][0].__setitem__(0, float("nan")),
                "submodules.s3.span[0]",
            ),
            (
                "perturbation_demo.json",
                lambda doc: doc["vectors"]["x"][0][0].__setitem__(0, float("inf")),
                "vectors.x[0]",
            ),
            (
                "quaternion_tight.json",
                lambda doc: doc["vectors"]["x"][0].__setitem__(0, float("nan")),
                "vectors.x[0]",
            ),
            (
                "block_tight.json",
                lambda doc: doc["commands"][4].update(index_sets=[[1, 2, 5], [2, 3]]),
                "commands[4].index_sets[0]",
            ),
            (
                "block_tight.json",
                lambda doc: doc["commands"][4]["index_sets"].append([1]),
                "commands[4].index_sets",
            ),
            (
                "block_tight.json",
                lambda doc: doc["weights"]["double"].append([2, 2, 2]),
                "commands[5].weights",
            ),
        ],
        ids=[
            "p-below-one",
            "rotate-seed-negative",
            "span-nan",
            "vector-inf",
            "quaternion-nan",
            "multiplier-index-out-of-range",
            "multiplier-index-set-count",
            "cone-weight-rows",
        ],
    )
    def test_bad_value_in_example_exit_code(self, tmp_path, capsys, example, edit, path):
        # Each of these ran (NaN span vectors were dropped, NaN vectors
        # reconstructed with rel_error 0, a count mismatch exited 1 with a
        # LengthMismatch record) or raised past main before.
        doc = json.loads(json.dumps(EXAMPLE_SCENARIOS[example]))
        edit(doc)
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
        assert f"error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda doc: doc["submodules"]["s1"]["span"][0][0].__setitem__(0, [10**400, 0]),
             "submodules.s1.span[0]"),
            (lambda doc: doc["vectors"]["x"][0].__setitem__(0, [10**400, 0]), "vectors.x[0]"),
            (lambda doc: doc["weights"]["ones"][0].__setitem__(0, 10**400), "weights.ones"),
            (lambda doc: doc["maps"]["stretch"].__setitem__("scales", [10**400]),
             "maps.stretch.scales"),
            (lambda doc: doc["perturbations"]["wiggle"]["rotate"].update(max_angle=10**400),
             "perturbations.wiggle.rotate.max_angle"),
            (lambda doc: doc["commands"][3].update(p=10**400), "commands[3].p"),
        ],
        ids=["span", "vector", "weights", "scales", "max_angle", "p"],
    )
    def test_integer_beyond_float_range_exit_code(self, tmp_path, capsys, edit, path):
        # Each of these raised OverflowError past main.
        doc = json.loads(json.dumps(EXAMPLE_SCENARIOS["perturbation_demo.json"]))
        edit(doc)
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "make",
        [
            lambda tmp_path: tmp_path / "absent.json",
            lambda tmp_path: tmp_path,
            lambda tmp_path: write_bytes(tmp_path, b'{"seed": "\xff"}'),
            lambda tmp_path: write_bytes(tmp_path, b"[" * 100_000 + b"]" * 100_000),
        ],
        ids=["missing", "directory", "not-utf8", "too-deep-to-parse"],
    )
    def test_unreadable_file_exit_code(self, tmp_path, make):
        # Each of these escaped main as a traceback with exit status 1.  The
        # CLI runs in a fresh process, so the nesting depth at which parsing
        # recurses too deeply does not depend on the test runner's own stack.
        env = dict(os.environ, PYTHONPATH=str(Path(cstar_fusion.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "cstar_fusion.cli", "run", str(make(tmp_path))],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    def test_a_deeply_nested_scenario_is_echoed_whole(self, tmp_path):
        # An unused key 600 lists deep: the report's encoder walks the echo
        # without recursing, so the run writes it back whole.  The CLI runs
        # in a fresh process, with the interpreter's own recursion limit.
        deep = b"[" * 600 + b"]" * 600
        path = write_bytes(tmp_path, json.dumps(dict(BLOCK_SCENARIO, note=0)).encode().replace(
            b'"note": 0', b'"note": ' + deep
        ))
        done = _cli(["run", path])
        assert done.returncode == 0 and not done.stderr
        note = json.loads(done.stdout)["scenario"]["note"]
        assert json.dumps(note, separators=(",", ":")).encode() == deep

    @pytest.mark.parametrize(
        "case", ["out-in-missing-directory", "out-is-a-directory", "examples-dir-is-a-file"]
    )
    def test_unwritable_output_exit_code(self, tmp_path, case):
        # Each of these escaped main as a traceback with exit status 1, the
        # status of a failed command.
        scenario = write_scenario(tmp_path, BLOCK_SCENARIO)
        argv, where = {
            "out-in-missing-directory": (["run", scenario, "--out"], tmp_path / "no" / "r.json"),
            "out-is-a-directory": (["run", scenario, "--out"], tmp_path),
            "examples-dir-is-a-file": (["examples", "--dir"], scenario),
        }[case]
        env = dict(os.environ, PYTHONPATH=str(Path(cstar_fusion.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "cstar_fusion.cli", *map(str, argv), str(where)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: {where}: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert not done.stdout

    @pytest.mark.parametrize("kind", ["complex", "quaternion"])
    def test_a_frame_whose_operator_overflows_exit_code(self, tmp_path, kind):
        # Built with numpy warnings on stderr, then every command errored.
        doc = {
            "algebra": {"kind": kind, "fibers": 1},
            "submodules": {"u": {"blocks": [1]}},
            "weights": {"w": [[1e200]]},
            "frames": {"f": {"submodules": ["u"], "weights": "w"}},
            "commands": [{"run": "bounds", "frame": "f"}, {"run": "tightness", "frame": "f"}],
        }
        env = dict(os.environ, PYTHONPATH=str(Path(cstar_fusion.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "cstar_fusion.cli", "run", str(write_scenario(tmp_path, doc))],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: frames.f: ")
        assert done.stderr.count("\n") == 1
        assert "Warning" not in done.stderr and "Traceback" not in done.stderr
        assert not done.stdout

    @pytest.mark.parametrize(
        "doc, path, message",
        [
            (
                {
                    "algebra": {"kind": "complex", "fibers": 1}, "module": {"dims": [2]},
                    "submodules": {"s": {"projection": [[[[1e200, 0], [0, 0]], [[0, 0], [0, 0]]]]},
                                   "t": {"blocks": [1]}},
                    "weights": {"w": [[1], [1]]},
                    "frames": {"f": {"submodules": ["s", "t"], "weights": "w"}},
                    "commands": [{"run": "bounds", "frame": "f"}],
                },
                "submodules.s.projection",
                "not a Hermitian idempotent matrix in every fiber",
            ),
            (
                {
                    "algebra": {"kind": "complex", "fibers": 1}, "module": {"dims": [2]},
                    "maps": {"m": {"rotations": [[[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]]}},
                    "commands": [],
                },
                "maps.m.rotations[0]",
                "fiber 0 rotation is not unitary (defect inf)",
            ),
        ],
        ids=["projection-square-overflows", "rotation-gram-overflows"],
    )
    def test_a_product_that_overflows_exit_code(self, tmp_path, capsys, doc, path, message):
        # The projection ran (exit 0, per_fiber [1, 1e200]) after two numpy
        # warnings; the rotation was refused as "defect nan" after two.
        # Under -W error both ended in a traceback with exit 1.
        scenario = str(write_scenario(tmp_path, doc))
        assert main(["run", scenario]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        env = dict(os.environ, PYTHONPATH=str(Path(cstar_fusion.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cstar_fusion.cli", "run", scenario],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr == f"error: {path}: {message}\n"
        assert not done.stdout

    def test_perturbation_bounds_that_overflow_are_an_error_record(self, tmp_path):
        # Two orthogonal lines perturbed onto each other: (upper norm + ecart)^2
        # raised a bare OverflowError, after numpy's overflow warning.
        doc = {
            "algebra": {"kind": "complex", "fibers": 1},
            "module": {"dims": [2]},
            "submodules": {"a": {"span": [[[[1, 0], [0, 0]]]]}, "b": {"span": [[[[0, 0], [1, 0]]]]}},
            "weights": {"w": [[9e153], [9e153]]},
            "frames": {"f": {"submodules": ["a", "b"], "weights": "w"}},
            "perturbations": {"p": {"frame": "f", "candidates": ["b", "a"]}},
            "commands": [{"run": "perturb", "perturbation": "p"}],
        }
        env = dict(os.environ, PYTHONPATH=str(Path(cstar_fusion.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cstar_fusion.cli", "run",
             str(write_scenario(tmp_path, doc))],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert not done.stderr
        assert json.loads(done.stdout)["results"][0]["error"] == {
            "type": "InvalidWeight",
            "message": "the perturbation bounds overflow: the weights are too large",
        }

    def test_lone_surrogate_rotation_name_runs(self, tmp_path):
        # Seeding the rotation from the name's crc raised UnicodeEncodeError.
        doc = json.loads(json.dumps(EXAMPLE_SCENARIOS["perturbation_demo.json"]))
        doc["perturbations"] = {"\ud800": doc["perturbations"]["wiggle"]}
        doc["commands"][3]["perturbation"] = "\ud800"
        out = tmp_path / "report.json"
        assert main(["run", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"]

    def test_negative_zero_max_angle_runs(self, tmp_path):
        # uniform(0, -0.0) raised "high - low < 0" past main.
        doc = json.loads(json.dumps(EXAMPLE_SCENARIOS["perturbation_demo.json"]))
        doc["perturbations"]["wiggle"]["rotate"]["max_angle"] = -0.0
        out = tmp_path / "report.json"
        assert main(["run", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        perturb = [r for r in json.loads(out.read_text())["results"] if r["command"] == "perturb"]
        assert perturb[0]["output"]["ecart"] == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_exit_code(self, tmp_path, capsys, bad):
        doc = json.loads(json.dumps(BLOCK_SCENARIO))
        doc["weights"]["ones"][0][1] = bad
        path = write_scenario(tmp_path, doc)
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        assert main(["run", str(path)]) == 2
        assert "error: weights.ones:" in capsys.readouterr().err

    def test_byte_identical_reports(self, tmp_path):
        path = write_scenario(tmp_path, BLOCK_SCENARIO)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["run", str(path), "--out", str(out1)])
        main(["run", str(path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_only_unknown_command_exit_code(self, tmp_path, capsys):
        # The message names the commands in the scenario validator's order.
        doc = dict(BLOCK_SCENARIO, commands=[{"run": "bogus"}])
        bad = write_scenario(tmp_path, doc, "bad.json")
        assert main(["run", str(bad)]) == 2
        validator = capsys.readouterr().err
        assert "unknown command 'bogus'; expected one of check-frame, bounds," in validator
        path = write_scenario(tmp_path, BLOCK_SCENARIO)
        assert main(["run", str(path), "--only", "bogus"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == "error: --only: " + validator[validator.index("unknown command") :]

    def test_only_command_the_scenario_lacks_runs_nothing(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BLOCK_SCENARIO)
        assert main(["run", str(path), "--only", "perturb"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == [] and report["ok"]

    def test_examples_subcommand(self, tmp_path, capsys):
        assert main(["examples", "--dir", str(tmp_path)]) == 0
        for name in EXAMPLE_SCENARIOS:
            assert (tmp_path / name).exists()
        # every bundled scenario loads and runs cleanly
        for name in EXAMPLE_SCENARIOS:
            scenario = load_scenario(tmp_path / name)
            _, ok = run_scenario(scenario)
            assert ok, name

    def test_bundled_block_scenario_values(self, tmp_path):
        write_examples(tmp_path)
        scenario = load_scenario(tmp_path / "block_tight.json")
        report, _ = run_scenario(scenario)
        by_command = {entry["command"]: entry["output"] for entry in report["results"]}
        constant = by_command["multiplier"]["tight_constant"]["data"]
        np.testing.assert_allclose(constant[::2], [1, np.sqrt(2), 1], atol=1e-12)

    def test_bundled_counterexample_reports_right_angles(self, tmp_path):
        write_examples(tmp_path)
        scenario = load_scenario(tmp_path / "angle_counterexample.json")
        report, _ = run_scenario(scenario)
        perturb = report["results"][1]["output"]
        np.testing.assert_allclose(perturb["angles"], np.pi / 2, atol=1e-12)
        assert not perturb["guaranteed"]


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(EXAMPLE_SCENARIOS))
def test_bundled_report_matches_its_golden_file(name):
    """Each bundled example's report, byte for byte as committed in
    tests/golden (written by ``cstar-fusion run <name> --out``)."""
    report, _ = run_scenario(build_scenario(EXAMPLE_SCENARIOS[name]))
    assert (dump_json(report) + "\n").encode() == (GOLDEN / name).read_bytes()


# The report branches no bundled example reaches: a non-frame `bounds` (and
# the error record of its `tightness`), a non-member `multiplier`, `perturb`
# with `p: null` and a quaternion `transport`.
BRANCH_SCENARIO = {
    "seed": 11,
    "algebra": {"kind": "quaternion", "fibers": 3},
    "submodules": {
        "u1": {"blocks": [1, 2]},
        "u2": {"blocks": [2, 3]},
        "u3": {"selectors": [1, 0, 1]},
    },
    "weights": {"one": [[1, 1, 1]], "pair": [[1, 2, 1], [1, 1, 3]]},
    "frames": {
        "partial": {"submodules": ["u1"], "weights": "one"},
        "f": {"submodules": ["u1", "u2"], "weights": "pair"},
    },
    "maps": {
        "turn": {
            "scales": [2, 1, 0.5],
            "rotations": [[0, 1, 0, 0], [1, 0, 0, 0], [0.6, 0, 0.8, 0]],
        }
    },
    "perturbations": {"swap": {"frame": "f", "candidates": ["u1", "u3"]}},
    "commands": [
        {"run": "bounds", "frame": "partial"},
        {"run": "tightness", "frame": "partial"},
        {"run": "multiplier", "index_sets": [[1], [2]], "weights": "pair"},
        {"run": "perturb", "perturbation": "swap", "p": None},
        {"run": "transport", "frame": "f", "map": "turn"},
    ],
}


def test_report_branches_match_their_golden_file():
    report, ok = run_scenario(build_scenario(BRANCH_SCENARIO))
    assert not ok
    golden = GOLDEN / "report_branches.json"
    assert (dump_json(report) + "\n").encode() == golden.read_bytes()
    outputs = [entry.get("output") for entry in report["results"]]
    assert (outputs[0]["is_frame"], outputs[0]["tight"], outputs[0]["constant"]) == (
        False, False, None)
    assert outputs[2]["member"] is False and outputs[2]["tight_constant"] is None
    assert outputs[3]["criteria"]["crit3"] is None
    assert outputs[4]["nu"]["kind"] == "quaternion"


# -- fuzzing -----------------------------------------------------------------

# Integers stay small: a scenario may ask for a huge fiber dimension or
# sample count, which costs memory or time instead of being malformed.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _value_paths(doc, prefix=()):
    """The path to every value in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _value_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


FUZZ_TARGETS = [
    (name, path) for name, doc in EXAMPLE_SCENARIOS.items() for path in _value_paths(doc)
]


@settings(max_examples=250, deadline=None)
@given(target=st.sampled_from(FUZZ_TARGETS), value=JSON_VALUES)
def test_fuzzed_scenario_exits_with_a_status(target, value):
    """Any one value of a bundled example replaced by any JSON value: the
    CLI returns 0, 1 or 2 and never raises."""
    name, path = target
    with tempfile.TemporaryDirectory() as workdir:
        scenario = Path(workdir) / "scenario.json"
        scenario.write_text(json.dumps(_replaced(EXAMPLE_SCENARIOS[name], path, value)))
        with contextlib.redirect_stderr(io.StringIO()):
            status = main(["run", str(scenario), "--out", str(Path(workdir) / "report.json")])
    assert status in (0, 1, 2)


# -- non-numbers at numeric leaves ---------------------------------------------


def _key_path(path) -> str:
    """A value's key path as error messages print it, such as ``maps.m.scales[0]``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _with_every_numeric_form(name: str) -> dict:
    """A bundled example plus the numeric forms it lacks: a declared
    projection, selectors and a map with rotations."""
    doc = json.loads(json.dumps(EXAMPLE_SCENARIOS[name]))
    fibers = doc["algebra"]["fibers"]
    if doc["algebra"]["kind"] == "quaternion":
        projection = [1] * fibers
        rotations = [[0, 1, 0, 0]] * fibers
    else:
        m = doc["module"]["dims"][0]
        projection = [np.stack([np.eye(m), np.zeros((m, m))], -1).tolist()] * fibers
        rotations = projection
    doc["submodules"].update(p={"projection": projection}, sel={"selectors": [1] * fibers})
    doc.setdefault("maps", {})["turn"] = {"scales": [1.0] * fibers, "rotations": rotations}
    return doc


def _numeric_leaf_cases():
    """``true`` in place of one numeric leaf per key path with its indices
    stripped, in each bundled example with every numeric form."""
    for name in EXAMPLE_SCENARIOS:
        doc = _with_every_numeric_form(name)
        seen = set()
        for path in _value_paths(doc):
            value = doc
            for key in path:
                value = value[key]
            stripped = tuple(key for key in path if isinstance(key, str))
            if _is_number(value) and stripped not in seen:
                seen.add(stripped)
                yield pytest.param(doc, path, id=f"{name}:{_key_path(path)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _error_path(err: str) -> str:
    assert err.startswith("error: "), err
    return err[len("error: "):].split(": ")[0]


@pytest.mark.parametrize("doc, path", _numeric_leaf_cases())
def test_bool_at_a_numeric_leaf_exits_2_at_its_key_path(tmp_path, capsys, doc, path):
    """A boolean is never a number, at any numeric leaf: weight, span,
    vector, projection, selector, scale and rotation entries included."""
    assert main(["run", str(write_scenario(tmp_path, doc))]) == 0
    assert main(["run", str(write_scenario(tmp_path, _replaced(doc, path, True)))]) == 2
    reported, leaf = _error_path(capsys.readouterr().err), _key_path(path)
    assert leaf == reported or leaf.startswith((reported + ".", reported + "["))


@pytest.mark.parametrize(
    "name, path, value, reported",
    [
        ("perturbation_demo.json", ("maps", "stretch", "scales"), ["a"], "maps.stretch.scales"),
        ("quaternion_tight.json", ("maps", "turn", "rotations", 1), ["a", 0, 0, 0],
         "maps.turn.rotations[1]"),
    ],
    ids=["scales", "quaternion-rotation"],
)
def test_string_in_a_map_exits_2_without_numpy_text(tmp_path, capsys, name, path, value, reported):
    # The message is the reader's own, with none of numpy's conversion text.
    doc = _replaced(_with_every_numeric_form(name), path, value)
    assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert _error_path(err) == reported
    assert "convert" not in err


class TestReportStream:
    """``run`` writes the report piece by piece onto its destination, as
    UTF-8, and never holds the whole text."""

    def test_writing_costs_less_than_half_the_report(self, tmp_path, monkeypatch):
        doc = _bench_complex_scenario(monkeypatch)
        doc["commands"] = [cmd for cmd in doc["commands"] if cmd["run"] != "verify-oracle"]
        path, out = write_scenario(tmp_path, doc), tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 0
        size = out.stat().st_size
        running = peak_bytes(lambda: run_scenario(load_scenario(path)))
        whole = peak_bytes(lambda: main(["run", str(path), "--out", str(out)]))
        # It was 2.65 times the size: the text, its copy with a newline and
        # the encoded bytes at once.
        assert whole - running < size / 2

    @pytest.mark.parametrize("name", [*EXAMPLE_SCENARIOS, "bench-complex"])
    def test_stdout_and_out_give_the_same_bytes(self, tmp_path, monkeypatch, name):
        if name == "bench-complex":
            doc = _bench_complex_scenario(monkeypatch)
        else:
            doc = EXAMPLE_SCENARIOS[name]
        path, out = write_scenario(tmp_path, doc), tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 0
        done = _cli(["run", path])
        assert done.returncode == 0 and not done.stderr
        assert done.stdout == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to", ["out", "stdout"])
    def test_a_full_destination_exits_2(self, tmp_path, to):
        # --out printed "error: None: ..." (a write error names no file), and
        # stdout ended in a traceback with exit status 1.
        path = write_scenario(tmp_path, EXAMPLE_SCENARIOS["block_tight.json"])
        if to == "out":
            done, where = _cli(["run", path, "--out", "/dev/full"]), "/dev/full"
        else:
            with open("/dev/full", "wb") as full:
                done = _cli(["run", path], stdout=full, stderr=subprocess.PIPE)
            where = "<stdout>"
        assert done.returncode == 2
        assert done.stderr.decode() == f"error: {where}: {os.strerror(errno.ENOSPC)}\n"

    def test_reports_are_utf8_under_any_locale(self, tmp_path):
        # Both destinations ended in a UnicodeEncodeError traceback.
        doc = json.loads(json.dumps(BLOCK_SCENARIO))
        doc["submodules"]["\u00e9"] = doc["submodules"].pop("u1")
        doc["frames"]["f"]["submodules"][0] = "\u00e9"
        path, out = write_scenario(tmp_path, doc), tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 0
        expected = out.read_bytes()
        assert "\u00e9".encode() in expected
        ascii_locale = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        ascii_locale.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        c_out = tmp_path / "c-report.json"
        for done in (_cli(["run", path, "--out", c_out], env=ascii_locale),
                     _cli(["run", path], env=ascii_locale)):
            assert done.returncode == 0 and not done.stderr
        assert c_out.read_bytes() == expected
        assert done.stdout == expected


class TestSeedOverride:
    def _count_builds(self, monkeypatch):
        import cstar_fusion.scenario as scenario_module

        calls = []
        real = scenario_module.build_scenario

        def spy(raw):
            calls.append(raw)
            return real(raw)

        monkeypatch.setattr(scenario_module, "build_scenario", spy)
        # The runner must not rebuild through a name of its own either.
        monkeypatch.setattr(cstar_fusion.cli, "build_scenario", spy, raising=False)
        return calls

    def test_seed_override_builds_once(self, tmp_path, monkeypatch):
        calls = self._count_builds(monkeypatch)
        path = write_scenario(tmp_path, EXAMPLE_SCENARIOS["perturbation_demo.json"])
        out = tmp_path / "override.json"
        assert main(["run", str(path), "--seed", "5", "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_seed_override_matches_a_written_seed(self, tmp_path):
        for name, doc in EXAMPLE_SCENARIOS.items():
            override, written = tmp_path / "override.json", tmp_path / "written.json"
            path = write_scenario(tmp_path, doc, "doc.json")
            assert main(["run", str(path), "--seed", "5", "--out", str(override)]) in (0, 1)
            seeded = write_scenario(tmp_path, {**doc, "seed": 5}, "seeded.json")
            assert main(["run", str(seeded), "--out", str(written)]) in (0, 1)
            assert override.read_bytes() == written.read_bytes(), name

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BLOCK_SCENARIO)
        assert main(["run", str(path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed: seed must be a nonnegative integer\n"


def test_a_map_without_rotations_is_validated_once(monkeypatch):
    from cstar_fusion.morphism import OrthoMap

    checked = []
    real = OrthoMap.__post_init__

    def spy(self):
        checked.append(self.shape)
        real(self)

    monkeypatch.setattr(OrthoMap, "__post_init__", spy)
    scenario = build_scenario(EXAMPLE_SCENARIOS["perturbation_demo.json"])
    assert scenario.maps and "rotations" not in scenario.raw["maps"]["stretch"]
    assert len(checked) == len(scenario.maps)


# -- the paused collector -------------------------------------------------------

@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic collector switched on or off for the block, then restored."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def _bench_complex_scenario(monkeypatch) -> dict:
    """The complex scenario of the ``cli_scenarios`` benchmark at its full
    size: about 20k JSON lists."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    sizes = workloads.SIZES["cli_scenarios"]["full"]["complex_"]
    return workloads.complex_scenario(np.random.default_rng([7, 0]), 7, **sizes)


class YieldingCollector:
    """The ``gc`` module, letting other threads run before each call: it
    widens the windows in which a lost update of the shared pause shows."""

    def __getattr__(self, name):
        function = getattr(gc, name)

        def call(*args):
            time.sleep(0)
            return function(*args)

        return call


class TestCollectorPause:
    """``main`` pauses the cyclic collector for the run.  That is free only
    because a run leaves no reference cycle behind, whatever the size of the
    scenario (the argument parser, which holds cycles, is built once); and
    the caller must get its own setting back."""

    @pytest.mark.parametrize("case", ["bench-complex", *EXAMPLE_SCENARIOS, "exit-1", "exit-2"])
    def test_a_run_leaves_almost_no_cyclic_garbage(self, tmp_path, monkeypatch, case):
        if case == "bench-complex":
            doc, status = _bench_complex_scenario(monkeypatch), 0
        elif case == "exit-1":
            doc, status = FAILING_COMMAND, 1
        elif case == "exit-2":
            doc, status = dict(BLOCK_SCENARIO, weights={"ones": "nope"}), 2
        else:
            doc, status = EXAMPLE_SCENARIOS[case], 0
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "report.json"
        with collector(True), contextlib.redirect_stderr(io.StringIO()):
            gc.collect()
            assert main(["run", str(path), "--out", str(out)]) == status
            assert gc.collect() < 500

    def test_a_warm_run_leaves_no_cyclic_garbage(self, tmp_path):
        path = write_scenario(tmp_path, EXAMPLE_SCENARIOS["block_tight.json"])
        argv = ["run", str(path), "--out", str(tmp_path / "report.json")]
        with collector(True):
            assert main(argv) == 0  # warm-up: the first run builds the parser
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0

    def test_the_argument_parser_is_built_at_most_once(self, tmp_path, monkeypatch):
        built = []  # the top-level parsers; a subparser's prog is "cstar-fusion run" and so on
        real = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            if kwargs.get("prog") == "cstar-fusion":
                built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        path = write_scenario(tmp_path, BLOCK_SCENARIO)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["run", str(path), "--only", "bounds"]) == 0
            assert main(["run", str(path), "--only", "nope"]) == 2
            assert main(["examples", "--dir", str(tmp_path / "examples")]) == 0
        assert len(built) <= 1

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2", "unwritable-out", "usage"])
    def test_the_callers_setting_is_restored(self, tmp_path, enabled, case):
        good = write_scenario(tmp_path, BLOCK_SCENARIO, "good.json")
        argv, status = {
            "exit-0": (["run", good, "--out", tmp_path / "r.json"], 0),
            "exit-1": (["run", write_scenario(tmp_path, FAILING_COMMAND, "bad.json")], 1),
            "exit-2": (["run", tmp_path / "missing.json"], 2),
            "unwritable-out": (["run", good, "--out", tmp_path], 2),
            "usage": (["run"], None),  # argparse exits by SystemExit(2)
        }[case]
        with collector(enabled), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            if status is None:
                with pytest.raises(SystemExit):
                    main([str(a) for a in argv])
            else:
                assert main([str(a) for a in argv]) == status
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_overlapping_runs_share_one_pause(self, tmp_path, monkeypatch, enabled):
        tiny = dict(BLOCK_SCENARIO, commands=[{"run": "bounds", "frame": "f"}])
        path = write_scenario(tmp_path, tiny)
        statuses = []
        collecting = []  # the collector's state as each run starts its commands
        real = cli.run_scenario

        def spy(*args, **kwargs):
            collecting.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_scenario", spy)
        monkeypatch.setattr(cli, "gc", YieldingCollector())

        start = threading.Barrier(8, timeout=60)  # each round starts from no active run

        def runs(worker: int) -> None:
            out = tmp_path / f"report-{worker}.json"
            for _ in range(10):
                start.wait()
                statuses.append(main(["run", str(path), "--out", str(out)]))

        threads = [threading.Thread(target=runs, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with collector(enabled):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert gc.isenabled() is enabled
        finally:
            sys.setswitchinterval(interval)
        assert statuses == [0] * 80
        assert collecting == [False] * 80
