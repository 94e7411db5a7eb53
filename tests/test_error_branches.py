"""Library error branches: each input is refused with its own type and message."""

import re

import numpy as np
import pytest

from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    LengthMismatch,
    ModuleSequence,
    ModuleShape,
    ModuleVector,
    OrthoMap,
    ShapeMismatch,
    WeightSequence,
    WeightedFrame,
    assemble_block_frame,
    block_submodule,
    brute_force_frame_check,
    flatten_frame_operator,
    left_action,
    positivity_class,
    seq_inner,
    span_submodule,
    transport_frame,
)
from cstar_fusion.tolerance import DENSE_CAP

PLANE = ModuleShape(COMPLEX, (2, 2))
LINE = ModuleShape(COMPLEX, (2,))


def _full_frame(shape: ModuleShape) -> WeightedFrame:
    everything = block_submodule(shape, range(1, shape.fiber_count + 1))
    return WeightedFrame([everything], WeightSequence(shape.kind, np.ones((1, shape.fiber_count))))


def _vector(shape: ModuleShape) -> ModuleVector:
    return ModuleVector(shape, [np.ones(m) for m in shape.dims])


CASES = [
    pytest.param(
        lambda: flatten_frame_operator(_full_frame(ModuleShape(COMPLEX, (1,) * (DENSE_CAP + 1)))),
        ShapeMismatch, f"dense dimension {DENSE_CAP + 1} exceeds the cap {DENSE_CAP}",
        id="dense-operator-above-the-cap",
    ),
    pytest.param(
        lambda: brute_force_frame_check(_full_frame(PLANE), 0),
        ValueError, "need at least one sample", id="no-samples",
    ),
    pytest.param(
        lambda: WeightSequence(COMPLEX, [1.0, 2.0]),
        ShapeMismatch, "weights must form a nonempty (M, N) matrix", id="weights-1d",
    ),
    pytest.param(
        lambda: WeightSequence(COMPLEX, [[]]),
        ShapeMismatch, "weights must form a nonempty (M, N) matrix", id="weights-empty",
    ),
    pytest.param(
        lambda: WeightSequence("octonion", [[1.0]]),
        ValueError, "unknown scalar kind 'octonion'", id="weights-unknown-kind",
    ),
    pytest.param(
        lambda: WeightedFrame(
            [block_submodule(PLANE, [1]), block_submodule(ModuleShape(COMPLEX, (2, 3)), [1])],
            WeightSequence(COMPLEX, np.ones((2, 2))),
        ),
        ShapeMismatch, "submodules must share one shape", id="frame-over-two-shapes",
    ),
    pytest.param(
        lambda: ModuleSequence([]),
        LengthMismatch, "a module sequence needs at least one entry", id="empty-sequence",
    ),
    pytest.param(
        lambda: ModuleSequence([_vector(PLANE), _vector(LINE)]),
        ShapeMismatch, "sequence entries must share one shape", id="sequence-of-two-shapes",
    ),
    pytest.param(
        lambda: seq_inner(ModuleSequence([_vector(PLANE)] * 2), ModuleSequence([_vector(PLANE)])),
        LengthMismatch, "sequence lengths differ: 2 vs 1", id="seq-inner-lengths",
    ),
    pytest.param(
        lambda: ModuleVector(PLANE, [np.ones(2)]),
        ShapeMismatch, "expected 2 fibers, got 1", id="vector-fiber-count",
    ),
    pytest.param(
        lambda: ModuleVector(PLANE, {3: np.ones((2, 3))}),
        ShapeMismatch, "blocks for dimensions [3], not [2]", id="vector-block-dimensions",
    ),
    pytest.param(
        lambda: ModuleVector(PLANE, {2: np.ones((1, 2))}),
        ShapeMismatch, "dimension-2 block has shape (1, 2)", id="vector-block-shape",
    ),
    pytest.param(
        lambda: left_action(AlgebraElement.ones(QUATERNION, 2), _vector(PLANE)),
        ShapeMismatch, "mixed scalar kinds 'quaternion' and 'complex'", id="left-action-kinds",
    ),
    pytest.param(
        lambda: OrthoMap(PLANE, [1.0], {2: np.tile(np.eye(2), (2, 1, 1))}),
        ShapeMismatch, "need one scale per fiber", id="map-scale-count",
    ),
    pytest.param(
        lambda: transport_frame(OrthoMap.identity(LINE), _full_frame(PLANE)),
        ShapeMismatch, f"module shapes differ: {LINE} vs {PLANE}", id="transport-across-shapes",
    ),
    pytest.param(
        lambda: span_submodule(PLANE, [[[1.0, 0.0]]]),
        ShapeMismatch, "expected spans for 2 fibers, got 1", id="span-fiber-count",
    ),
    pytest.param(
        lambda: AlgebraElement(QUATERNION, np.ones((2, 3))),
        ValueError, "quaternion fibers must form an (N, 4) array", id="quaternion-not-n-by-4",
    ),
    pytest.param(
        lambda: positivity_class(AlgebraElement.ones(COMPLEX, 2), -1),
        ValueError, "tol must be nonnegative", id="negative-positivity-tol",
    ),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_refused_with_its_type_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_brute_force_default_stream_gives_one_verdict():
    frame = assemble_block_frame(COMPLEX, [[1, 2], [2, 3]], [[1.0, 2.0, 1.0], [1.0, 1.0, 3.0]])
    assert brute_force_frame_check(frame, 30) is True
    assert brute_force_frame_check(frame, 30) is True
