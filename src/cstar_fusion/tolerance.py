"""Numerical tolerances, one name per meaning.

This is README's "Numerical conventions" as code.  Each tolerance is a
constant here times the norm of its own operand; the weight rule, which
floors it at 1, is the one exception.  Only three tolerances are settable:
``tol`` of ``positivity_class`` (default ORDER_TOL * |a|), of ``order_leq``
(default ORDER_TOL * max(|a|, |b|)) and of ``validate_projection`` (default
PROJECTION_TOL).  Every other check uses its constant here; ``multiplier``
compares its closed-form constant with the assembled bounds exactly.  The
three spectral-norm bounds on a defect (UNITARY_TOL, PROJECTION_TOL and
HERMITIAN_TOL) are decided by ``hilbert_module._spectral_defects``, which
takes an SVD only past half the bound.
"""

ORDER_TOL = 1e-12  # positivity, order and centrality tests, times the operand's norm
FRAME_TOL = 1e-10  # a frame: each fiber's smallest eigenvalue exceeds this times its largest
TIGHT_TOL = 1e-10  # tight: each fiber's spread <= this * its largest; Parseval: |level - 1|
MGS_DROP = 1e-10  # Gram-Schmidt drops a remainder <= this * the fiber's largest input norm
UNITARY_TOL = 1e-10  # a rotation U is unitary when ||U^H U - I||_2 <= this
PROJECTION_TOL = 1e-12  # ||p - p^H||_2 and ||p @ p - p||_2 of a declared projection <= this
SNAP_TO_ONE = 1e-13  # projection distances this close to 1 snap to 1
DENSE_CAP = 2048  # the largest flattened dimension the dense oracle builds
HERMITIAN_TOL = 1e-10  # the oracle's check, per diagonal block b: ||b - b^H||_2 <= this * ||b||_2
ORACLE_SLACK = 1e-10  # oracle agreement with the fast path, times each fiber's largest eigenvalue
SAMPLE_REDRAW = 1e-8  # the oracle redraws a sampled vector whose module norm is at most this
