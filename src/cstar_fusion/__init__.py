"""Weighted fusion frames over fiberwise operator algebras.

Frame verification and optimal bounds, synthesis and its adjoint, exact
reconstruction, tightness and multiplier tests, frame transport through
orthogonality-preserving bijections, and perturbation analysis via
projection distances and subspace angles — over complex or quaternion
fibers, with an independent dense oracle and a batch CLI.
"""

from .algebra import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    PositivityClass,
    alg_norm,
    invert,
    is_central,
    order_leq,
    positivity_class,
    sqrt_positive,
    star,
)
from .errors import (
    CstarFusionError,
    IndexOutOfRange,
    InvalidWeight,
    LengthMismatch,
    NotAFrame,
    NotFinite,
    NotHermitian,
    NotInvertible,
    NotPositive,
    ParseError,
    QuaternionUnsupported,
    ShapeMismatch,
    ValidationError,
)
from .frame import (
    FrameBounds,
    FrameOperatorFibers,
    ModuleSequence,
    MultiplierResult,
    ReconstructionResult,
    TightnessResult,
    WeightSequence,
    WeightedFrame,
    assemble_block_frame,
    block_multiplier_check,
    cone_add,
    cone_scale,
    frame_bounds,
    frame_operator,
    reconstruct,
    seq_inner,
    synthesis,
    synthesis_adjoint,
    tightness,
)
from .hilbert_module import ModuleShape, ModuleVector, inner_product, left_action, module_norm
from .morphism import OrthoMap, transport_frame
from .oracle import (
    DenseOperator,
    brute_force_frame_check,
    eigen_bounds,
    flatten_frame_operator,
    flatten_vector,
    quaternion_block,
    random_unit_vector,
)
from .perturbation import (
    CriteriaResult,
    PerturbReport,
    angle,
    angle_criteria,
    ball_membership,
    ecart,
    perturbation_check,
    proj_distance,
    randomly_rotated,
)
from .submodule import (
    Submodule,
    block_submodule,
    complement,
    project,
    span_submodule,
    validate_projection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
