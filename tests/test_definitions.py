"""Each per-fiber rule of the library has one definition, which every other
site calls: exact 2^-e scaling, the Hermitian part, unitary conjugation of
a submodule and the order of the fibers in their dimension groups.  A
frame's bounds, verdict and tightness are decided in one place, its
constructor, the oracle's agreement slack in one function, the
``verify-oracle`` verdict in one function of ``oracle.py``, and every
"spectral norm of a defect within a bound" in one function.  Every
length of user-scale data is taken by ``algebra._lengths``, only the
weight rule floors its tolerance at 1, and no numpy set routine is called.
Outside the algebra layer and scenario I/O, the scalar kind is tested only
where the two kinds truly differ: every fiber operator is a complex matrix."""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cstar_fusion import COMPLEX, AlgebraElement, assemble_block_frame, brute_force_frame_check
from cstar_fusion import frame_bounds, oracle, scenario, tightness
from helpers import random_complex_frame, random_quaternion_frame

SRC = Path(__file__).resolve().parents[1] / "src" / "cstar_fusion"


def _sites(match) -> set[tuple[str, str]]:
    """(file, innermost enclosing function) of every syntax node of the
    library that ``match`` accepts; "<module>" outside any function, and a
    method named with its class, as in "WeightedFrame.__post_init__"."""
    found = set()

    def visit(node, where, cls, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, cls = (node.name if cls is None else f"{cls}.{node.name}"), None
        elif isinstance(node, ast.ClassDef):
            cls = node.name
        if match(node):
            found.add((name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where, cls, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", None, path.name)
    return found


def _calls_named(names):
    """Attributes or bare names such as ``np.frexp`` or ``frexp``."""
    def match(node):
        return (isinstance(node, ast.Attribute) and node.attr in names) or (
            isinstance(node, ast.Name) and node.id in names
        )
    return match


def _source_like(pattern: str):
    """Expressions whose source text matches ``pattern`` in full."""
    regex = re.compile(pattern)
    return lambda node: isinstance(node, ast.BinOp) and regex.fullmatch(ast.unparse(node))


def _length_like(node) -> bool:
    """A row or block length: ``np.linalg.norm`` with no order, or ``np.sqrt``
    of an expression that squares (``x ** 2`` or ``x * x``)."""
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    if func == "np.linalg.norm":
        return len(node.args) < 2 and all(k.arg != "ord" for k in node.keywords)
    return func == "np.sqrt" and any(
        isinstance(n, ast.BinOp)
        and (
            (isinstance(n.op, ast.Pow) and ast.unparse(n.right) == "2")
            or (isinstance(n.op, ast.Mult) and ast.unparse(n.left) == ast.unparse(n.right))
        )
        for n in ast.walk(node)
    )


def _spectral_norm(node) -> bool:
    """``np.linalg.norm`` with order 2, given by position or by keyword."""
    if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.norm"):
        return False
    order = node.args[1:2] or [k.value for k in node.keywords if k.arg == "ord"]
    return any(isinstance(o, ast.Constant) and o.value == 2 for o in order)


def _unit_floor(node) -> bool:
    """A tolerance floor ``max(1.0, x)`` or ``np.maximum(1.0, x)``."""
    return (
        isinstance(node, ast.Call)
        and _calls_named({"max", "maximum"})(node.func)
        and any(isinstance(a, ast.Constant) and type(a.value) is float and a.value == 1.0
                for a in node.args)
    )


RULES = {
    "power-of-two scaling": (
        _calls_named({"frexp", "ldexp"}),
        {("algebra.py", "_frexp_exponent"), ("algebra.py", "_ldexp")},
    ),
    "hermitian part": (
        _source_like(r"\((.+) \+ _adjoint\(\1\)\) / 2(\.0)?|\(_adjoint\((.+)\) \+ \3\) / 2(\.0)?"),
        {("hilbert_module.py", "_hermitian")},
    ),
    "unitary conjugation": (
        _source_like(r"(.+) @ .+ @ (_adjoint|np\.swapaxes)\(\1\b.*"),
        {("submodule.py", "_conjugated")},
    ),
    "fiber order": (_calls_named({"argsort"}), {("hilbert_module.py", "ModuleShape.fiber_order")}),
    "frame bounds": (
        lambda node: isinstance(node, ast.Call) and _calls_named({"FrameBounds"})(node.func),
        {("frame.py", "WeightedFrame.__post_init__")},
    ),
    "frame verdict": (
        _calls_named({"FRAME_TOL", "TIGHT_TOL"}),
        {("frame.py", "WeightedFrame.__post_init__"), ("tolerance.py", "<module>")},
    ),
    "tightness": (
        lambda node: isinstance(node, ast.Call) and _calls_named({"TightnessResult"})(node.func),
        {("frame.py", "WeightedFrame.__post_init__")},
    ),
    "agreement slack": (
        _calls_named({"ORACLE_SLACK"}),
        {("oracle.py", "_agreement_slack"), ("tolerance.py", "<module>")},
    ),
    # module_norm and _span_projections scale first; their bits reach reports.
    "row or block length": (
        _length_like,
        {("algebra.py", "_lengths"), ("hilbert_module.py", "module_norm"),
         ("submodule.py", "_span_projections")},
    ),
    "user-scale lengths": (
        _calls_named({"_lengths"}),
        {("algebra.py", "AlgebraElement.fiber_moduli"),
         ("algebra.py", "AlgebraElement.imag_magnitudes"),
         ("morphism.py", "OrthoMap.__post_init__"), ("hilbert_module.py", "_spectral_defects")},
    ),
    # _block_bounds takes ||b||_2 of the blocks past its Hermitian check.
    "spectral norm": (
        _spectral_norm,
        {("hilbert_module.py", "_spectral_defects"), ("oracle.py", "_block_bounds")},
    ),
    # Every other tolerance is relative to its own operand (README).
    "unit floor": (_unit_floor, {("frame.py", "WeightSequence.__post_init__")}),
}


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_has_one_definition(rule):
    match, definition = RULES[rule]
    assert _sites(match) == definition


def _imported_from(path: Path, module: str) -> set[str]:
    """The names ``path`` imports from the library module ``module``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


def test_the_oracle_verdict_has_one_owner():
    # verify-oracle's verdict is oracle.verify_frame; no other module splits
    # the dense operator, maps its blocks to fibers or reads the slack.
    private = {"_block_bounds", "_fiber_offsets", "_agreement_slack"}
    assert {site[0] for site in _sites(_calls_named(private))} == {"oracle.py"}
    for path in sorted(SRC.glob("*.py")):
        assert not private & _imported_from(path, "oracle"), path.name
    assert _imported_from(SRC / "scenario.py", "oracle") == {"verify_frame"}


def _kind_test(node) -> bool:
    """A comparison ``== / !=`` against COMPLEX or QUATERNION (or their strings)."""
    kinds = {"COMPLEX", "QUATERNION", "'complex'", "'quaternion'"}
    return (
        isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(ast.unparse(side) in kinds for side in [node.left, *node.comparators])
    )


# The width rule, the algebra-valued inner product and left action (Hamilton
# products on (w, x, y, z) rows), the quaternion solve that keeps dividing
# the row by s bit for bit, a map's unit-row input and the refusal of
# quaternion spans.  Every other fiber operator is a complex matrix.
KIND_TESTS = {
    ("hilbert_module.py", "ModuleShape.__post_init__"),
    ("hilbert_module.py", "inner_product"),
    ("hilbert_module.py", "left_action"),
    ("frame.py", "_solve_operator"),
    ("morphism.py", "OrthoMap.__post_init__"),
    ("submodule.py", "span_submodule"),
}


def test_the_scalar_kind_is_tested_only_where_the_kinds_differ():
    outside = {"algebra.py", "scenario.py", "cli.py"}
    sites = [site for site in _sites(_kind_test) if site[0] not in outside]
    assert set(sites) == KIND_TESTS
    count = sum(
        _kind_test(node)
        for path in sorted(SRC.glob("*.py")) if path.name not in outside
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert count == len(KIND_TESTS)


def test_no_numpy_set_routine_is_called():
    # In numpy 2 each imports numpy.ma, which costs a process ~1 MiB
    # (test_cold_start.py); group by the Python values instead.
    routines = {"unique", "unique_all", "unique_counts", "unique_inverse", "unique_values",
                "isin", "in1d", "union1d", "intersect1d", "setdiff1d", "setxor1d"}
    assert _sites(_calls_named(routines)) == set()


def test_a_rotation_is_checked_without_an_eigendecomposition():
    assert not {site for site in _sites(_calls_named({"eigvalsh"})) if site[0] == "morphism.py"}


def test_the_multiplier_agreement_has_no_tolerance():
    for path in sorted(SRC.glob("*.py")):
        assert "MULTIPLIER_ATOL" not in path.read_text(encoding="utf-8"), path.name


def test_a_frame_keeps_its_bounds_not_its_extremes():
    for path in sorted(SRC.glob("*.py")):
        assert "_extremes" not in path.read_text(encoding="utf-8"), path.name


def test_the_oracle_checks_the_frames_own_bounds():
    assert "bounds" not in inspect.signature(brute_force_frame_check).parameters


@pytest.mark.parametrize(
    "function",
    [AlgebraElement.fiber_moduli, AlgebraElement.real_parts, AlgebraElement.imag_magnitudes,
     AlgebraElement.star, oracle.flatten_vector],
)
def test_a_scalar_is_read_through_its_real_rows_without_a_kind_branch(function):
    body = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0].body
    code = [n for n in body if not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))]
    assert not any(isinstance(node, (ast.If, ast.IfExp)) for n in code for node in ast.walk(n))
    assert "kind" not in "\n".join(map(ast.unparse, code))


def test_the_frame_report_reads_tightness_without_a_branch():
    tree = ast.parse(inspect.getsource(scenario._frame_report))
    assert not any(isinstance(node, (ast.If, ast.IfExp)) for node in ast.walk(tree))


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_complex_frame(np.random.default_rng(90)),
        lambda: random_quaternion_frame(np.random.default_rng(91)),
        lambda: assemble_block_frame(COMPLEX, [[1, 2], [2]], [[1.0, 1.0], [1.0, 1.0]]),
    ],
    ids=["complex", "quaternion", "tight"],
)
def test_tightness_is_the_one_the_bounds_hold(make):
    frame = make()
    assert frame_bounds(frame).is_frame
    assert frame_bounds(frame).tightness is tightness(frame)
