"""Scenario validation branches: each error names the key path of its value."""

import re

import numpy as np
import pytest

from cstar_fusion import COMPLEX, QUATERNION, ModuleShape, ValidationError
from cstar_fusion.cli import run_scenario
from cstar_fusion.scenario import build_scenario
from helpers import scenario_doc

PLANE = ModuleShape(COMPLEX, (2, 2))
QUAT = ModuleShape(QUATERNION, (1, 1))
IDENTITY = np.stack([np.eye(2), np.zeros((2, 2))], -1).tolist()  # I_2 as [re, im] entries


def _doc(shape=PLANE, **sections) -> dict:
    """Two fibers, the two block submodules and a frame of them."""
    base = {
        "submodules": {"a": {"blocks": [1, 2]}, "b": {"blocks": [1, 2]}},
        "weights": {"w": [[1, 1], [1, 1]]},
        "frames": {"f": {"submodules": ["a", "b"], "weights": "w"}},
    }
    return scenario_doc(shape, **{**base, **sections})


def _rejected(doc, path: str, message: str) -> None:
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: {re.escape(message)}"):
        build_scenario(doc)


def _perturb_output(rotate: dict, seed=None) -> dict:
    doc = _doc(
        seed=11,
        submodules={
            "a": {"span": [[[[1, 0], [0, 0]]], [[[1, 0], [1, 0]]]]},
            "b": {"span": [[[[0, 0], [1, 0]]], [[[1, 0], [0, 1]]]]},
        },
        perturbations={"p": {"frame": "f", "rotate": rotate}},
        commands=[{"run": "perturb", "perturbation": "p"}],
    )
    report, ok = run_scenario(build_scenario(doc), seed=seed)
    assert ok
    return report["results"][0]["output"]


class TestPerturbations:
    def test_an_explicit_rotate_seed_ignores_the_scenario_seed(self):
        seeded = {"max_angle": 0.2, "seed": 3}
        assert _perturb_output(seeded) == _perturb_output(seeded, seed=5)
        assert _perturb_output(seeded) != _perturb_output({"max_angle": 0.2})

    @pytest.mark.parametrize(
        "spec",
        [
            {"frame": "f"},
            {"frame": "f", "candidates": ["a", "b"], "rotate": {"max_angle": 0.1}},
        ],
        ids=["neither", "both"],
    )
    def test_exactly_one_of_candidates_and_rotate(self, spec):
        doc = _doc(perturbations={"p": spec})
        _rejected(doc, "perturbations.p", "need exactly one of candidates / rotate")

    def test_an_unknown_candidate(self):
        doc = _doc(perturbations={"p": {"frame": "f", "candidates": ["a", "ghost"]}})
        _rejected(doc, "perturbations.p.candidates", "unknown submodule 'ghost'")

    def test_a_candidate_count_other_than_the_frame_length(self):
        doc = _doc(perturbations={"p": {"frame": "f", "candidates": ["a"]}})
        _rejected(doc, "perturbations.p.candidates", "frame has 2 submodules, got 1 candidates")


class TestSubmodules:
    @pytest.mark.parametrize(
        "spec", [{}, {"blocks": [1], "selectors": [1, 0]}], ids=["none", "two"]
    )
    def test_exactly_one_form(self, spec):
        doc = _doc(submodules={"u": spec})
        _rejected(doc, "submodules.u", "need exactly one of blocks / selectors / span / projection")

    @pytest.mark.parametrize("shape", [PLANE, QUAT], ids=["complex", "quaternion"])
    def test_a_selector_bit_names_its_index(self, shape):
        doc = _doc(shape, submodules={"u": {"selectors": [0, 2]}})
        _rejected(doc, "submodules.u.selectors[1]", "selector bits must be 0 or 1")

    @pytest.mark.parametrize(
        "shape, form, entries",
        [
            (PLANE, "selectors", [0, 1, 1]),
            (PLANE, "span", [[[[1, 0], [0, 0]]]]),
            (PLANE, "projection", [IDENTITY] * 3),
            (QUAT, "projection", [1]),
        ],
        ids=["selectors", "span", "complex-projection", "quaternion-projection"],
    )
    def test_a_list_of_another_fiber_count(self, shape, form, entries):
        doc = _doc(shape, submodules={"u": {form: entries}})
        _rejected(doc, f"submodules.u.{form}", "expected 2 fibers")

    @pytest.mark.parametrize(
        "form, entries, fiber, message",
        [
            ("blocks", [1, 3], "", "fiber index 3 outside 1..2"),
            ("span", [[[[1, 0], [0, 0], [0, 0]]], [[[1, 0], [0, 0]]]],
             "[0]", "fiber 0 span vector has length 3, expected 2"),
            ("projection", [np.stack([np.eye(3), np.zeros((3, 3))], -1).tolist(), IDENTITY],
             "[0]", "fiber 0 has shape (3, 3), expected (2, 2)"),
        ],
        ids=["blocks-index", "span-vector-length", "projection-fiber-shape"],
    )
    def test_a_library_error_names_its_form(self, form, entries, fiber, message):
        _rejected(_doc(submodules={"u": {form: entries}}), f"submodules.u.{form}{fiber}", message)

    @pytest.mark.parametrize(
        "form, entries, message",
        [
            ("span", [[[[1, 0]]], [[[1, 0], [0, 0], [0, 0]]]],
             "fiber 1 span vector has length 3, expected 2"),
            ("projection", [[[[1, 0]]], np.stack([np.eye(3), np.zeros((3, 3))], -1).tolist()],
             "fiber 1 has shape (3, 3), expected (2, 2)"),
        ],
        ids=["span", "projection"],
    )
    def test_a_fiber_of_another_shape_fails_at_its_index(self, form, entries, message):
        doc = _doc(ModuleShape(COMPLEX, (1, 2)), submodules={"u": {form: entries}})
        _rejected(doc, f"submodules.u.{form}[1]", message)


class TestValues:
    def test_a_complex_leaf_of_length_three(self):
        doc = _doc(vectors={"x": [[[1, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 0, 0]]]})
        _rejected(doc, "vectors.x[0]", "expected a list of [re, im] pairs")

    def test_a_quaternion_row_fails_at_its_fiber(self):
        # Both failed at vectors.x, with no fiber named.
        doc = _doc(QUAT, vectors={"x": [[1, 0, 0, 0], [1, 0, 0]]})
        _rejected(doc, "vectors.x[1]", "fiber 1 has shape (3,), expected (4,)")
        doc = _doc(QUAT, vectors={"x": [[1, 0, 0, 0], [1, 0, "y", 0]]})
        _rejected(doc, "vectors.x[1]", "expected a [w, x, y, z] row")

    def test_a_weight_matrix_of_another_column_count(self):
        doc = _doc(weights={"w": [[1, 1, 1], [1, 1, 1]]})
        _rejected(doc, "weights.w", "expected rows of 2 positive reals")

    def test_an_unknown_algebra_kind(self):
        doc = _doc()
        doc["algebra"]["kind"] = "octonion"
        _rejected(doc, "algebra.kind", "unknown kind 'octonion'")


class TestMaps:
    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"scales": [1.0, 2.0, 3.0]}, "scales"),
            ({"rotations": [IDENTITY]}, "rotations"),
        ],
        ids=["scales", "rotations"],
    )
    def test_a_count_other_than_the_fiber_count(self, spec, key):
        _rejected(_doc(maps={"m": spec}), f"maps.m.{key}", "expected 2 fibers")

    @pytest.mark.parametrize(
        "scales", [["a", 1.0], 2.0, [[1.0, 2.0]]], ids=["string", "number", "nested"]
    )
    def test_scales_of_another_type(self, scales):
        _rejected(_doc(maps={"m": {"scales": scales}}), "maps.m.scales", "expected a list of reals")

    @pytest.mark.parametrize("scales", [[1.0, -1.0], [0.0, 1.0]], ids=["negative", "zero"])
    def test_a_scale_out_of_range_fails_at_the_scales(self, scales):
        message = "scales must be positive and finite"
        _rejected(_doc(maps={"m": {"scales": scales}}), "maps.m.scales", message)

    def test_a_rotation_that_is_not_unitary_fails_at_its_fiber(self):
        sheared = np.stack([[[1.0, 1.0], [0.0, 1.0]], np.zeros((2, 2))], -1).tolist()
        doc = _doc(maps={"m": {"rotations": [IDENTITY, sheared]}})
        _rejected(doc, "maps.m.rotations[1]", "fiber 1 rotation is not unitary")
        doc = _doc(QUAT, maps={"m": {"rotations": [[0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]}})
        _rejected(doc, "maps.m.rotations[0]", "fiber 0 rotation is not unitary")

    def test_a_rotation_of_another_shape_fails_at_the_rotations(self):
        wide = np.stack([np.eye(3), np.zeros((3, 3))], -1).tolist()
        doc = _doc(maps={"m": {"rotations": [IDENTITY, wide]}})
        _rejected(doc, "maps.m.rotations[1]", "fiber 1 has shape (3, 3), expected (2, 2)")
        doc = _doc(ModuleShape(COMPLEX, (1, 2)), maps={"m": {"rotations": [[[[1, 0]]], wide]}})
        _rejected(doc, "maps.m.rotations[1]", "fiber 1 has shape (3, 3), expected (2, 2)")
        doc = _doc(QUAT, maps={"m": {"rotations": [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}})
        _rejected(doc, "maps.m.rotations[1]", "fiber 1 has shape (3,), expected (4,)")

    def test_a_quaternion_map_without_rotations_turns_nothing(self):
        mapping = build_scenario(_doc(QUAT, maps={"m": {"scales": [2.0, 3.0]}})).maps["m"]
        np.testing.assert_array_equal(mapping.rotations, [[1.0, 0.0, 0.0, 0.0]] * 2)
        np.testing.assert_array_equal(mapping.nu().real_parts(), [4.0, 9.0])


class TestCommands:
    def test_index_sets_other_than_the_weight_rows(self):
        command = {"run": "multiplier", "index_sets": [[1], [2], [1, 2]], "weights": "w"}
        doc = _doc(commands=[command])
        _rejected(doc, "commands[0].index_sets", "weights have 2 rows, got 3 index sets")

    def test_cone_weight_rows_other_than_the_frame_length(self):
        doc = _doc(
            weights={"w": [[1, 1], [1, 1]], "w3": [[1, 1]] * 3},
            commands=[{"run": "cone", "frame": "f", "weights": "w3"}],
        )
        _rejected(doc, "commands[0].weights", "frame has 2 submodules, got 3 weight rows")

    def test_a_member_spread_over_the_fibers_agrees_with_the_frame_bounds(self):
        # Each fiber exactly tight, S = 1 and S = 1e-12; a frame fiber by fiber.
        command = {"run": "multiplier", "index_sets": [[1, 2]], "weights": "spread"}
        weights = {"w": [[1, 1], [1, 1]], "spread": [[1, 1e-6]]}
        report, ok = run_scenario(build_scenario(_doc(weights=weights, commands=[command])))
        output = report["results"][0]["output"]
        assert ok and output["member"] is True
        assert output["agrees_with_frame_bounds"] is True

    def test_a_repeated_index_counts_once_in_the_multiplier(self):
        command = {"run": "multiplier", "index_sets": [[1, 1], [2]], "weights": "w"}
        report, ok = run_scenario(build_scenario(_doc(commands=[command])))
        output = report["results"][0]["output"]
        assert ok and output["agrees_with_frame_bounds"] is True
        assert output["tight_constant"]["data"] == [1.0, 0.0, 1.0, 0.0]
