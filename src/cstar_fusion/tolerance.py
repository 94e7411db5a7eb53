"""Numerical tolerances, one name per meaning.

This is README's "Numerical conventions" as code.  The ``tol`` parameters
that exist default to these constants; no other tolerance is settable.
"""

ORDER_TOL = 1e-12  # positivity, order and centrality tests, times max(1, |a|)
FRAME_TOL = 1e-10  # a frame's smallest eigenvalue exceeds this times max(1, largest)
TIGHT_TOL = 1e-10  # tight: eigenvalue spread <= this * max(1, largest); Parseval: |level - 1|
MGS_DROP = 1e-10  # Gram-Schmidt drops a remainder <= this * the fiber's largest input norm
UNITARY_TOL = 1e-10  # a rotation U is unitary when ||U^H U - I||_2 <= this
PROJECTION_TOL = 1e-12  # a declared projection is Hermitian and idempotent within this
SNAP_TO_ONE = 1e-13  # projection distances this close to 1 snap to 1
DENSE_CAP = 2048  # the largest flattened dimension the dense oracle builds
HERMITIAN_TOL = 1e-10  # the oracle's check: ||m - m^H||_2 <= this * max(1, ||m||_2)
ORACLE_SLACK = 1e-10  # oracle agreement with the fast path, times max(1, scalar upper bound)
MULTIPLIER_ATOL = 1e-10  # closed-form multiplier constant vs the assembled frame's bounds
