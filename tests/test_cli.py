"""End-to-end tests for the scenario runner."""

import json

import numpy as np
import pytest

from cstar_fusion import ParseError, ValidationError
from cstar_fusion.cli import EXAMPLE_SCENARIOS, dump_json, main, run_scenario, write_examples
from cstar_fusion.scenario import build_scenario, load_scenario

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


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestDumpJson:
    def test_sorted_keys_and_float_digits(self):
        text = dump_json({"b": 1 / 3, "a": True, "c": [1, None]})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.33333333333333331" in text

    def test_string_escaping(self):
        assert dump_json('he said "hi"\n') == '"he said \\"hi\\"\\n"'

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
        doc = {
            "algebra": {"kind": "complex", "fibers": 2},
            "submodules": {"u": {"blocks": [1]}},
            "weights": {"w": [[1, 1]]},
            "frames": {"f": {"submodules": ["u"], "weights": "w"}},
            "commands": [{"run": "tightness", "frame": "f"}],
        }
        report, ok = run_scenario(build_scenario(doc))
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
