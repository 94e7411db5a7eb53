"""Tests for the dense brute-force reference path."""

import dataclasses
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_fusion import frame as frame_module
from cstar_fusion import hilbert_module, oracle, submodule
from cstar_fusion import scenario as scenario_module
from cstar_fusion import (
    COMPLEX,
    QUATERNION,
    AlgebraElement,
    DenseOperator,
    ModuleShape,
    ModuleVector,
    NotFinite,
    NotHermitian,
    ShapeMismatch,
    WeightSequence,
    WeightedFrame,
    assemble_block_frame,
    block_submodule,
    brute_force_frame_check,
    eigen_bounds,
    flatten_frame_operator,
    flatten_vector,
    frame_bounds,
    module_norm,
    quaternion_block,
    random_unit_vector,
    span_submodule,
    star,
)
from cstar_fusion.tolerance import HERMITIAN_TOL
from helpers import (
    peak_bytes,
    random_complex_frame,
    random_quaternion_frame,
    random_span_submodule,
    random_vector,
)


def ref_flatten_frame_operator(frame) -> np.ndarray:
    """The per-submodule dense formulation: each submodule becomes its own
    (total, total) matrix, scaled and summed, then symmetrized."""
    kind = frame.shape.kind
    dims = [m if kind == COMPLEX else 2 for m in frame.shape.dims]
    total = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    out = np.zeros((total, total), dtype=complex)
    wmatrix = frame.weights.matrix
    for n, sub in enumerate(frame.submodules):
        dense = np.zeros((total, total), dtype=complex)
        scale = np.zeros(total)
        for k, p in enumerate(sub.fibers):
            lo, hi = offsets[k], offsets[k + 1]
            if kind == COMPLEX:
                dense[lo:hi, lo:hi] = np.asarray(p)
            else:
                dense[lo:hi, lo:hi] = float(p[0, 0]) * np.eye(2)
            scale[lo:hi] = wmatrix[n, k] ** 2
        out += scale[:, None] * dense
    return (out + out.conj().T) / 2.0


def ref_eigen_bounds(op) -> dict:
    """The whole-matrix formulation: the Hermitian gate on m - m^H, then
    the blocks that h = (m + m^H) / 2's own zeros split off."""
    m = op.matrix
    if not np.linalg.norm(m - m.conj().T) <= HERMITIAN_TOL / 2:
        defect = float(np.linalg.norm(m - m.conj().T, 2))
        if defect > HERMITIAN_TOL * max(1.0, float(np.linalg.norm(m, 2))):
            raise NotHermitian(f"operator deviates from Hermitian by {defect:.2e}")
    h = (m + m.conj().T) / 2.0
    n = len(h)
    nonzero = h != 0
    nonzero[np.diag_indices(n)] = True
    last = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    ends = np.flatnonzero(np.maximum.accumulate(last) == np.arange(n)) + 1
    starts = np.concatenate([[0], ends[:-1]])
    sizes = ends - starts
    eigvals = []
    for s in np.unique(sizes):
        at = starts[sizes == s][:, None, None] + np.arange(s)
        eigvals.append(np.linalg.eigvalsh(h[np.swapaxes(at, 1, 2), at]))
    return {
        "lambda_min": float(min(e[:, 0].min() for e in eigvals)),
        "lambda_max": float(max(e[:, -1].max() for e in eigvals)),
    }


def _dense_frame(fibers: int = 64, dim: int = 8) -> WeightedFrame:
    """Five random spans and one full block over ``fibers`` fibers of
    dimension ``dim``: a dense operator of side fibers * dim."""
    rng = np.random.default_rng(87)
    shape = ModuleShape(COMPLEX, (dim,) * fibers)
    subs = [random_span_submodule(rng, shape) for _ in range(5)]
    subs.append(block_submodule(shape, range(1, fibers + 1)))
    weights = WeightSequence.from_matrix(COMPLEX, rng.uniform(0.5, 2.0, (6, fibers)))
    return WeightedFrame(subs, weights)


@pytest.fixture
def three_subspace_frame():
    shape = ModuleShape(COMPLEX, (2,))
    subs = [
        span_submodule(shape, [[np.array([1.0, 0.0])]]),
        span_submodule(shape, [[np.array([0.0, 1.0])]]),
        span_submodule(shape, [[np.array([1.0, 1.0])]]),
    ]
    return WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1], [1], [1]]))


class TestFlatten:
    def test_parseval_identity(self):
        shape = ModuleShape(COMPLEX, (2,))
        frame = WeightedFrame(
            [block_submodule(shape, {1})], WeightSequence.from_matrix(COMPLEX, [[1]])
        )
        np.testing.assert_allclose(flatten_frame_operator(frame).matrix, np.eye(2))

    def test_three_subspace_matrix(self, three_subspace_frame):
        np.testing.assert_allclose(
            flatten_frame_operator(three_subspace_frame).matrix,
            [[1.5, 0.5], [0.5, 1.5]],
            atol=1e-15,
        )

    def test_block_diagonal(self):
        frame = assemble_block_frame(COMPLEX, [[1, 2], [2, 3]], [[1, 1, 1], [1, 2, 1]])
        np.testing.assert_allclose(
            flatten_frame_operator(frame).matrix, np.diag([1.0, 5.0, 1.0])
        )

    def test_quaternion_blocks_duplicate_scalars(self):
        frame = assemble_block_frame(QUATERNION, [[1, 2], [2, 3]], [[1, 1, 1], [1, 2, 1]])
        np.testing.assert_allclose(
            flatten_frame_operator(frame).matrix, np.diag([1.0, 1.0, 5.0, 5.0, 1.0, 1.0])
        )

    def test_bit_identical_to_dense_formulation(self):
        rng = np.random.default_rng(78)
        shape = ModuleShape(COMPLEX, (3, 1, 4, 3, 2, 1, 4, 4))
        subs = [random_span_submodule(rng, shape) for _ in range(5)]
        weights = WeightSequence.from_matrix(COMPLEX, rng.uniform(0.2, 2.0, (5, 8)))
        frames = [WeightedFrame(subs, weights)]
        frames += [random_complex_frame(rng) for _ in range(10)]
        frames += [random_quaternion_frame(rng) for _ in range(10)]
        assert {f.shape.kind for f in frames} == {COMPLEX, QUATERNION}
        for frame in frames:
            got = flatten_frame_operator(frame).matrix
            assert np.array_equal(got, ref_flatten_frame_operator(frame))

    def test_vector_flattening_preserves_fiber_norms(self):
        rng = np.random.default_rng(71)
        for kind, dims in ((COMPLEX, (3, 2)), (QUATERNION, (1, 1))):
            shape = ModuleShape(kind, dims)
            x = random_vector(rng, shape)
            flat = flatten_vector(x)
            pos = 0
            for k, f in enumerate(x.fibers):
                width = shape.dims[k] if kind == COMPLEX else 2
                chunk = flat[pos : pos + width]
                assert np.linalg.norm(chunk) == pytest.approx(np.linalg.norm(f), rel=1e-12)
                pos += width


class TestEigenBounds:
    def test_identity(self):
        got = eigen_bounds(DenseOperator(np.eye(3)))
        assert got == {"lambda_min": 1.0, "lambda_max": 1.0}

    def test_two_by_two(self):
        got = eigen_bounds(DenseOperator(np.array([[1.5, 0.5], [0.5, 1.5]])))
        assert got["lambda_min"] == pytest.approx(1.0, abs=1e-12)
        assert got["lambda_max"] == pytest.approx(2.0, abs=1e-12)

    def test_diagonal(self):
        got = eigen_bounds(DenseOperator(np.diag([1.0, 5.0, 1.0])))
        assert (got["lambda_min"], got["lambda_max"]) == (1.0, 5.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigen_bounds(DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex)))

    @staticmethod
    def _skewed(skew: float) -> DenseOperator:
        # 1e6 I plus a part whose m - m^H has spectral norm `skew` and
        # Frobenius norm sqrt(2) * skew.
        return DenseOperator(1e6 * np.eye(2) + np.array([[0, skew], [0, 0]]))

    def test_relative_threshold_past_the_frobenius_gate(self):
        # tol = 1e-10 < 1e-6 < tol * ||m||_2 ~ 1e-4: Hermitian within tolerance.
        got = eigen_bounds(self._skewed(1e-6))
        assert got["lambda_min"] == pytest.approx(1e6 - 5e-7, abs=1e-9)
        assert got["lambda_max"] == pytest.approx(1e6 + 5e-7, abs=1e-9)

    def test_rejection_states_the_spectral_defect(self):
        # 1e-3 > tol * ||m||_2; the Frobenius defect would read 1.41e-03.
        with pytest.raises(NotHermitian, match=r"by 1\.00e-03$"):
            eigen_bounds(self._skewed(1e-3))

    def test_bit_identical_to_the_whole_matrix_formulation(self):
        rng = np.random.default_rng(89)
        frames = [random_complex_frame(rng) for _ in range(10)]
        frames += [random_quaternion_frame(rng) for _ in range(10)]
        frames.append(_dense_frame(fibers=16))
        for frame in frames:
            op = flatten_frame_operator(frame)
            assert eigen_bounds(op) == ref_eigen_bounds(op)

    @staticmethod
    def _skew_coupled(skew: float) -> np.ndarray:
        # Two Hermitian blocks coupled by m[0, 2] = -conj(m[2, 0]) = skew (1 + 1j):
        # h = (m + m^H) / 2 is zero there, m is not.
        m = _block_diagonal([np.array([[2.0, 1.0], [1.0, 2.0]]), [[5.0]]])
        m[0, 2] = skew * (1 + 1j)
        m[2, 0] = -np.conj(m[0, 2])
        return m

    def test_a_skew_coupling_within_tolerance_keeps_the_extremes(self, monkeypatch):
        shapes = _eigvalsh_shapes(monkeypatch)
        m = self._skew_coupled(1e-11)
        got = eigen_bounds(DenseOperator(m))
        assert shapes == [(1, 3, 3)]  # m's own zeros merge the blocks h would split
        want = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        assert got["lambda_min"] == pytest.approx(want[0], rel=0.0, abs=1e-14)
        assert got["lambda_max"] == pytest.approx(want[-1], rel=0.0, abs=1e-14)

    def test_a_skew_coupling_beyond_tolerance_is_rejected(self):
        # ||m - m^H||_2 = 2 sqrt(2) 1e-4, past HERMITIAN_TOL * ||m||_2 = 5e-10.
        with pytest.raises(NotHermitian, match=r"by 2\.83e-04$"):
            eigen_bounds(DenseOperator(self._skew_coupled(1e-4)))

    def test_a_defect_past_the_gate_takes_its_norms_on_the_blocks(self, monkeypatch):
        # One entry of a D = 512 operator off by 1e-9: past the Frobenius
        # gate, within HERMITIAN_TOL * ||m||_2.  Every spectral norm (of the
        # defect, and of the block where the defect alone does not decide)
        # is taken on the 8x8 block stacks, never on the whole matrix.
        m = np.array(flatten_frame_operator(_dense_frame()).matrix)
        m[0, 1] += 1e-9
        op = DenseOperator(m)
        norm = np.linalg.norm
        shapes = []

        def spy(x, ord=None, *args, **kwargs):
            if ord == 2:
                shapes.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        got = eigen_bounds(op)
        monkeypatch.undo()
        assert 1 <= len(shapes) <= 2 and all(len(s) == 3 and s[1:] == (8, 8) for s in shapes)
        assert got == ref_eigen_bounds(op)

    def test_hermitian_input_takes_no_spectral_norm(self, monkeypatch):
        norm, lengths = np.linalg.norm, hilbert_module._lengths
        orders, gates = [], []

        def spy(x, ord=None, *args, **kwargs):
            orders.append(ord)
            return norm(x, ord, *args, **kwargs)

        def gate(a, axis=-1):
            gates.append(axis)
            return lengths(a, axis)

        monkeypatch.setattr(np.linalg, "norm", spy)
        monkeypatch.setattr(hilbert_module, "_lengths", gate)
        frame = random_complex_frame(np.random.default_rng(79))
        eigen_bounds(flatten_frame_operator(frame))
        assert gates and set(gates) == {(-2, -1)}  # the Frobenius gate ran on the blocks
        assert 2 not in orders

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-200, 1e200])
    def test_the_hermitian_test_is_relative_at_every_scale(self, scale):
        # m - m^H is a tenth of m at every scale.  A floor of max(1, ||m||)
        # passed it at 1e-12, and an underflowed Frobenius norm at 1e-200.
        with pytest.raises(NotHermitian, match=re.escape(f"by {0.1 * scale:.2e}")):
            eigen_bounds(DenseOperator(scale * np.array([[1, 0.5], [0.4, 1]])))

    def test_the_hermitian_test_is_relative_to_each_block(self):
        # A small block a tenth off Hermitian beside a large Hermitian one.
        m = _block_diagonal([[[1e8]], 1e-3 * np.array([[1, 0.5], [0.4, 1]])])
        with pytest.raises(NotHermitian, match=r"by 1\.00e-04$"):
            eigen_bounds(DenseOperator(m))

    def test_extremes_past_the_float_range_of_their_sum_are_exact(self):
        # (b + b^H) / 2 overflowed at 1e308: lambda_max read inf after a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eigen_bounds(DenseOperator(np.diag([1e308, 1.0]))) == {
                "lambda_min": 1.0, "lambda_max": 1e308}
            got = eigen_bounds(DenseOperator(np.ldexp([[2.0, 1.0], [1.0, 2.0]], 1021)))
        assert (got["lambda_min"], got["lambda_max"]) == (np.ldexp(1.0, 1021), np.ldexp(3.0, 1021))

    def test_a_defect_past_the_float_range_is_refused_without_a_warning(self):
        # b - b^H warned "overflow encountered in subtract" first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian, match=r"by inf$"):
                eigen_bounds(DenseOperator(np.array([[0.0, 1e308], [-1e308, 0.0]])))

    def test_an_extreme_past_the_float_range_is_refused(self):
        # lambda_max = 2e308.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite):
                eigen_bounds(DenseOperator(np.full((2, 2), 1e308)))


def _eigvalsh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every array given to np.linalg.eigvalsh."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def _block_diagonal(blocks) -> np.ndarray:
    out = np.zeros((sum(map(len, blocks)),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


class TestDenseOperator:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # eigen_bounds of [[nan]] or [[inf]] raised LinAlgError from LAPACK.
        with pytest.raises(NotFinite):
            DenseOperator(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_rejects_an_empty_matrix(self):
        # eigen_bounds of a 0x0 operator raised IndexError.
        with pytest.raises(ShapeMismatch):
            DenseOperator(np.zeros((0, 0)))

    def test_a_writable_input_is_copied(self):
        a = np.eye(2, dtype=complex)
        op = DenseOperator(a)
        assert op.matrix is not a and a.flags.writeable
        assert not op.matrix.flags.writeable
        a[0, 0] = 7.0
        assert op.matrix[0, 0] == 1.0

    def test_a_read_only_complex_array_owning_its_data_is_kept(self):
        a = np.eye(3, dtype=complex)
        a.setflags(write=False)
        assert DenseOperator(a).matrix is a

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.eye(2),  # real
            lambda: np.eye(4, dtype=complex)[:2, :2],  # a view
            lambda: [[1.0, 0.0], [0.0, 1.0]],  # not an array
        ],
        ids=["real", "view", "list"],
    )
    def test_other_read_only_inputs_are_copied(self, make):
        a = make()
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
        op = DenseOperator(a)
        assert op.matrix is not a and op.matrix.dtype == complex
        assert op.matrix.flags.owndata and not op.matrix.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_kept_array_is_still_checked(self, bad):
        a = np.eye(2, dtype=complex)
        a[1, 1] = bad
        a.setflags(write=False)
        with pytest.raises(NotFinite):
            DenseOperator(a)
        empty = np.zeros((0, 0), dtype=complex)
        empty.setflags(write=False)
        with pytest.raises(ShapeMismatch):
            DenseOperator(empty)


class TestMemory:
    # A D = 512 operator: one dense matrix is 16 * 512**2 bytes (4 MiB).
    DENSE = 16 * 512**2

    def test_flattening_holds_one_dense_matrix(self):
        frame = _dense_frame()
        flatten_frame_operator(frame)  # caches the frame's blocks and weights
        assert peak_bytes(lambda: flatten_frame_operator(frame)) <= 1.1 * self.DENSE

    def test_eigen_bounds_allocates_less_than_a_dense_matrix(self):
        op = flatten_frame_operator(_dense_frame())
        assert len(op.matrix) == 512
        assert peak_bytes(lambda: eigen_bounds(op)) < self.DENSE


class TestBlockSplit:
    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        sparsity=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_extremes_equal_a_full_eigendecomposition(self, sizes, sparsity, seed):
        # Zeroed entries inside a block split it further, or not, depending
        # on where they fall; either way the extremes are the whole matrix's.
        rng = np.random.default_rng(seed)
        blocks = []
        for s in sizes:
            a = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
            a[rng.random((s, s)) < sparsity] = 0.0
            blocks.append(a + a.conj().T)
        m = _block_diagonal(blocks)
        got = eigen_bounds(DenseOperator(m))
        want = np.linalg.eigvalsh(m)
        atol = 1e-12 * max(1.0, np.linalg.norm(m, 2))
        assert got["lambda_min"] == pytest.approx(want[0], rel=0.0, abs=atol)
        assert got["lambda_max"] == pytest.approx(want[-1], rel=0.0, abs=atol)

    def test_blocks_of_one_size_are_stacked(self, monkeypatch):
        shapes = _eigvalsh_shapes(monkeypatch)
        pair = np.array([[2.0, 1.0], [1.0, 2.0]])
        got = eigen_bounds(DenseOperator(_block_diagonal([pair, [[5.0]], 3 * pair])))
        assert sorted(shapes) == [(1, 1, 1), (2, 2, 2)]
        assert got["lambda_min"] == pytest.approx(1.0, abs=1e-14)
        assert got["lambda_max"] == pytest.approx(9.0, abs=1e-14)

    def test_a_tiny_coupling_merges_two_blocks(self, monkeypatch):
        shapes = _eigvalsh_shapes(monkeypatch)
        m = _block_diagonal([np.array([[2.0, 1.0], [1.0, 2.0]]), [[5.0]]])
        m[1, 2] = m[2, 1] = 1e-300
        eigen_bounds(DenseOperator(m))
        assert shapes == [(1, 3, 3)]

    def test_a_matrix_without_zeros_is_one_block(self, monkeypatch):
        shapes = _eigvalsh_shapes(monkeypatch)
        a = np.random.default_rng(86).standard_normal((5, 5)) + 1.0
        eigen_bounds(DenseOperator(a + a.T))
        assert shapes == [(1, 5, 5)]

    def test_verify_oracle_takes_no_eigendecomposition_wider_than_a_fiber(self, monkeypatch):
        # 64 fibers of dimension 8 flatten to a 512x512 matrix; the oracle's
        # extremes come from its 8x8 blocks.  Counts shapes, not time.
        rng = np.random.default_rng(87)
        shape = ModuleShape(COMPLEX, (8,) * 64)
        subs = [random_span_submodule(rng, shape) for _ in range(5)]
        subs.append(block_submodule(shape, range(1, 65)))
        weights = WeightSequence.from_matrix(COMPLEX, rng.uniform(0.5, 2.0, (6, 64)))
        frame = WeightedFrame(subs, weights)
        shapes = _eigvalsh_shapes(monkeypatch)
        out = _verify(frame, samples=20)
        assert out["matches_bounds"] and out["sample_check"]
        assert max(s[-1] for s in shapes) == 8
        # One split and decomposition, shared by eigen_bounds and the verdict.
        assert len(shapes) == len(set(shapes))


class TestAgreement:
    def test_extremes_match_fast_path(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            frame = random_complex_frame(rng)
            bounds = frame_bounds(frame)
            eig = eigen_bounds(flatten_frame_operator(frame))
            assert eig["lambda_min"] == pytest.approx(bounds.scalar_lower, abs=1e-10)
            assert eig["lambda_max"] == pytest.approx(bounds.scalar_upper, abs=1e-10)

    def test_quaternion_extremes_match(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            frame = random_quaternion_frame(rng)
            bounds = frame_bounds(frame)
            eig = eigen_bounds(flatten_frame_operator(frame))
            assert eig["lambda_min"] == pytest.approx(bounds.scalar_lower, abs=1e-10)
            assert eig["lambda_max"] == pytest.approx(bounds.scalar_upper, abs=1e-10)


class TestPerFiberExtremes:
    """verify-oracle compares each fiber's dense extremes, over the diagonal
    blocks inside its coordinates, with that fiber's bounds."""

    def test_a_widened_bound_in_a_fiber_holding_no_extreme_fails(self):
        # Fiber 1's optimal pair (5, 5) reported as (2.5, 7.5): the global
        # extremes (1, 16) and every sample still agree with it.
        frame = assemble_block_frame(COMPLEX, [[1, 2, 3], [2]], [[1, 2, 4], [1, 1, 1]])
        bounds = frame_bounds(frame)
        np.testing.assert_allclose(bounds.per_fiber, [[1, 1], [5, 5], [16, 16]])
        widened = dataclasses.replace(
            bounds,
            lower=AlgebraElement.from_real(np.sqrt([1.0, 2.5, 16.0]), COMPLEX),
            upper=AlgebraElement.from_real(np.sqrt([1.0, 7.5, 16.0]), COMPLEX),
            per_fiber=((1.0, 1.0), (2.5, 7.5), (16.0, 16.0)),
        )
        assert _verify(frame, samples=500)["matches_bounds"]
        object.__setattr__(frame, "_bounds", widened)
        out = _verify(frame, samples=500)
        assert (out["matches_bounds"], out["sample_check"]) == (False, True)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: WeightedFrame(
                [block_submodule(ModuleShape(COMPLEX, (2, 3)), {1, 2})],
                WeightSequence.from_matrix(COMPLEX, [[1.0, 2.0]]),
            ),
            lambda: random_quaternion_frame(np.random.default_rng(92)),
        ],
        ids=["diagonal", "quaternion"],
    )
    def test_a_fiber_split_into_several_blocks_matches(self, make):
        # A diagonal S_k, and every quaternion fiber's s I_2, split into 1x1 blocks.
        out = _verify(make())
        assert out["matches_bounds"] and out["sample_check"]

    def test_a_block_that_straddles_two_fibers_fails(self, monkeypatch):
        # Two fibers with equal bounds, coupled by a Hermitian entry far
        # inside the slack: the extremes agree, the split does not.
        frame = assemble_block_frame(COMPLEX, [[1, 2]], [[1.0, 1.0]])
        m = np.array(flatten_frame_operator(frame).matrix)
        m[0, 1] = m[1, 0] = 1e-14
        monkeypatch.setattr(oracle, "flatten_frame_operator", lambda f: DenseOperator(m))
        out = _verify(frame)
        assert out["sample_check"] and not out["matches_bounds"]


class TestBruteForce:
    def test_parseval_passes(self):
        shape = ModuleShape(COMPLEX, (2,))
        frame = WeightedFrame(
            [block_submodule(shape, {1})], WeightSequence.from_matrix(COMPLEX, [[1]])
        )
        assert brute_force_frame_check(frame, 50, rng=np.random.default_rng(1))

    def test_three_subspace_sampling(self, three_subspace_frame):
        assert brute_force_frame_check(
            three_subspace_frame, 1000, rng=np.random.default_rng(2)
        )

    def test_corrupted_lower_bound_fails(self, monkeypatch, three_subspace_frame):
        bounds = frame_bounds(three_subspace_frame)
        corrupted = dataclasses.replace(bounds, scalar_lower=2 * bounds.scalar_lower)
        monkeypatch.setattr(oracle, "frame_bounds", lambda f: corrupted)
        assert not brute_force_frame_check(three_subspace_frame, 200, rng=np.random.default_rng(3))

    def test_quaternion_sampling(self):
        frame = random_quaternion_frame(np.random.default_rng(74))
        assert brute_force_frame_check(frame, 100, rng=np.random.default_rng(4))

    def test_an_operator_of_another_size_is_refused(self):
        # numpy's matmul raised a bare ValueError.
        frame = assemble_block_frame(COMPLEX, [[1, 2, 3]], [[1.0, 1.0, 1.0]])
        for size in (2, 4):
            with pytest.raises(ShapeMismatch):
                brute_force_frame_check(frame, 5, np.random.default_rng(5),
                                        operator=DenseOperator(np.eye(size)))

    def test_rows_of_another_width_are_refused(self):
        frame = assemble_block_frame(COMPLEX, [[1, 2, 3]], [[1.0, 1.0, 1.0]])
        operator = flatten_frame_operator(frame)
        with pytest.raises(ShapeMismatch):
            oracle.fiber_energies(operator, frame.shape, np.ones((2, 2), dtype=complex))
        np.testing.assert_array_equal(
            oracle.fiber_energies(operator, frame.shape, np.ones((2, 3), dtype=complex)),
            np.ones((2, 3)))


class TestQuaternionExpansion:
    def test_block_values(self):
        block = quaternion_block([1, 2, 3, 4])
        np.testing.assert_allclose(block, [[1 + 2j, 3 + 4j], [-3 + 4j, 1 - 2j]])

    def test_norm_fidelity(self):
        rng = np.random.default_rng(75)
        for _ in range(50):
            q = rng.standard_normal(4)
            assert np.linalg.norm(quaternion_block(q), 2) == pytest.approx(
                np.linalg.norm(q), rel=1e-12
            )

    def test_conjugation_is_adjoint(self):
        q = AlgebraElement.quaternions([[0.3, -1.2, 0.7, 2.0]])
        np.testing.assert_allclose(
            quaternion_block(star(q).fibers[0]), quaternion_block(q.fibers[0]).conj().T, atol=1e-15
        )

    def test_multiplicative(self):
        rng = np.random.default_rng(76)
        a = AlgebraElement.quaternions([rng.standard_normal(4)])
        b = AlgebraElement.quaternions([rng.standard_normal(4)])
        np.testing.assert_allclose(
            quaternion_block((a * b).fibers[0]),
            quaternion_block(a.fibers[0]) @ quaternion_block(b.fibers[0]),
            atol=1e-12,
        )


class TestRandomUnitVector:
    @pytest.mark.parametrize("kind,dims", [(COMPLEX, (2, 3)), (QUATERNION, (1, 1))])
    def test_unit_norm(self, kind, dims):
        rng = np.random.default_rng(77)
        x = random_unit_vector(ModuleShape(kind, dims), rng)
        assert module_norm(x) == pytest.approx(1.0, rel=1e-12)


def stream_unit_vector(shape, rng):
    """The sampling stream drawn one vector at a time: one
    standard_normal(2 D) draw per vector, read as D complex coordinates
    (re, im) and split by fiber; a vector of norm at most 1e-8 is redrawn."""
    width = sum(shape.dims) if shape.kind == COMPLEX else 2 * shape.fiber_count
    while True:
        draw = rng.standard_normal(2 * width)
        if shape.kind == COMPLEX:
            fibers = np.split(draw.view(complex), np.cumsum(shape.dims)[:-1])
        else:
            fibers = draw.reshape(-1, 4)
        x = ModuleVector(shape, fibers)
        norm = module_norm(x)
        if norm > 1e-8:
            return x * (1.0 / norm)


def per_fiber_unit_vector(shape, rng):
    """The per-fiber draw loop of earlier samplers, for quaternion fibers:
    one standard_normal(4) call per fiber, scaled by the reciprocal of the
    largest fiber length, |w + xi|^2 + |y + zi|^2 summed in that order."""
    while True:
        rows = np.array([rng.standard_normal(4) for _ in shape.dims])
        squares = rows**2
        norm = np.sqrt(np.max((squares[:, 0] + squares[:, 1]) + (squares[:, 2] + squares[:, 3])))
        if norm > 1e-8:
            return ModuleVector(shape, rows * (1.0 / norm))


class ZeroedStart:
    """A generator's normal stream with its first ``zeros`` numbers set to
    0, so that the first vector drawn has norm 0 and must be redrawn."""

    def __init__(self, seed: int, zeros: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.zeros = zeros
        self.drawn = 0

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        flat = out.reshape(-1)
        flat[: max(0, self.zeros - self.drawn)] = 0.0
        self.drawn += flat.size
        return out


def _state(bit_generator) -> dict:
    """A generator's state with arrays (MT19937's key) as lists, so that
    states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(bit_generator.state)


STREAM_SHAPES = [
    ModuleShape(COMPLEX, (3, 1, 4, 2, 1)),
    ModuleShape(COMPLEX, (8,) * 5),
    ModuleShape(QUATERNION, (1,) * 6),
]


class TestSamplingStream:
    @pytest.mark.parametrize("shape", STREAM_SHAPES, ids=["mixed", "equal", "quaternion"])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_random_unit_vector_draws_the_per_fiber_stream(self, shape, bit_generator):
        ours = np.random.Generator(bit_generator(80))
        theirs = np.random.Generator(bit_generator(80))
        for _ in range(5):
            got = random_unit_vector(shape, ours)
            want = stream_unit_vector(shape, theirs)
            for g, w in zip(got.fibers, want.fibers):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
            assert _state(ours.bit_generator) == _state(theirs.bit_generator)

    @pytest.mark.parametrize("shape", STREAM_SHAPES, ids=["mixed", "equal", "quaternion"])
    def test_a_null_draw_is_redrawn_from_the_stream(self, shape):
        width = 2 * flatten_vector(ModuleVector.zeros(shape)).size
        ours, theirs = ZeroedStart(81, width), ZeroedStart(81, width)
        got = random_unit_vector(shape, ours)
        want = stream_unit_vector(shape, theirs)
        for g, w in zip(got.fibers, want.fibers):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)
        assert _state(ours.rng.bit_generator) == _state(theirs.rng.bit_generator)
        # A batch redraws the rejected vector after the rest of its draws.
        ours, theirs = ZeroedStart(82, width), ZeroedStart(82, width)
        rows = oracle._unit_samples(shape, ours, 4)
        want = [flatten_vector(stream_unit_vector(shape, theirs)) for _ in range(4)]
        np.testing.assert_allclose(rows, want, rtol=0, atol=1e-15)
        assert _state(ours.rng.bit_generator) == _state(theirs.rng.bit_generator)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_quaternion_samples_equal_the_per_fiber_loop(self, bit_generator):
        # A quaternion fiber's (w, x, y, z) row already is its two complex
        # coordinates (re, im), so these samples are the per-fiber loop's.
        shape = ModuleShape(QUATERNION, (1,) * 6)
        ours = np.random.Generator(bit_generator(88))
        theirs = np.random.Generator(bit_generator(88))
        rows = oracle._unit_samples(shape, ours, 5)
        want = [flatten_vector(per_fiber_unit_vector(shape, theirs)) for _ in range(5)]
        np.testing.assert_array_equal(rows, want)
        got = random_unit_vector(shape, ours)
        np.testing.assert_array_equal(got.fibers, per_fiber_unit_vector(shape, theirs).fibers)
        assert _state(ours.bit_generator) == _state(theirs.bit_generator)

    @pytest.mark.parametrize("kind", ["complex", "quaternion"])
    def test_batches_draw_one_stream(self, monkeypatch, kind):
        frame = _scalar_fiber_frames()[kind]
        wrong = _raised_lower(frame_bounds(frame), by=1e-3)
        verdicts, states = [], []
        for coordinates in (1 << 16, 2 * len(flatten_frame_operator(frame).matrix)):
            monkeypatch.setattr(oracle, "_BATCH_COORDINATES", coordinates)
            rng = np.random.default_rng(86)
            verdicts.append(brute_force_frame_check(frame, 7, rng))
            states.append(_state(rng.bit_generator))
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "frame_bounds", lambda f: wrong)
                verdicts.append(brute_force_frame_check(frame, 7, np.random.default_rng(86)))
        assert verdicts == [True, False, True, False]
        assert states[0] == states[1]


def _raised_lower(bounds, by: float = 1e-6):
    """The bounds with every fiber's smallest eigenvalue reported ``by`` too high."""
    lam_min = bounds.lower.real_parts() ** 2 + by
    lower = AlgebraElement.from_real(np.sqrt(lam_min), bounds.lower.kind)
    return dataclasses.replace(bounds, lower=lower, scalar_lower=bounds.scalar_lower + by)


# Frames whose operator is a multiple of the identity on every fiber (every
# quaternion fiber's is), so that every sample attains each fiber's lower
# bound and a bound 1e-6 too high is caught.
def _scalar_fiber_frames():
    shape = ModuleShape(COMPLEX, (1, 1, 2))
    complex_frame = WeightedFrame(
        [
            span_submodule(shape, [[[1.0]], [[1.0]], [[1.0, 1.0j], [0.0, 1.0]]]),
            block_submodule(shape, {1, 3}),
        ],
        WeightSequence.from_matrix(COMPLEX, [[1.0, 2.0, 0.5], [1.5, 1.0, 1.0]]),
    )
    quaternion_frame = random_quaternion_frame(np.random.default_rng(83))
    return {"complex": complex_frame, "quaternion": quaternion_frame}


def _verify(frame, samples: int = 50) -> dict:
    """The verify-oracle command's output for this frame."""
    scenario = SimpleNamespace(frames={"f": frame})  # all the handler reads
    handler = scenario_module.COMMANDS["verify-oracle"].handler
    return handler(scenario, {"frame": "f", "samples": samples}, np.random.default_rng(84))


class TestOracleIndependence:
    @pytest.mark.parametrize("kind", ["complex", "quaternion"])
    def test_sampling_calls_no_fast_path_kernel(self, monkeypatch, kind):
        frame = _scalar_fiber_frames()[kind]
        calls = []

        def spy(name, original):
            def record(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return record

        for module in (hilbert_module, submodule, frame_module, oracle, scenario_module):
            for name in ("project", "left_action", "inner_product"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            original = getattr(ModuleVector, name)
            monkeypatch.setattr(ModuleVector, name, spy(f"ModuleVector.{name}", original))
        assert brute_force_frame_check(frame, 50, rng=np.random.default_rng(85))
        assert calls == []
        out = _verify(frame)
        assert out["sample_check"] and out["matches_bounds"]
        # verify-oracle's one fast-path call: its whole-operator comparison.
        assert calls == ["inner_product"]

    def test_an_operator_with_the_right_spectrum_in_the_wrong_basis_fails(self):
        shape = ModuleShape(COMPLEX, (2,))
        frame = WeightedFrame(
            [
                span_submodule(shape, [[np.array([1.0, 0.0])]]),
                span_submodule(shape, [[np.array([0.0, 1.0])]]),
            ],
            WeightSequence.from_matrix(COMPLEX, [[1.0], [2.0]]),
        )
        assert _verify(frame)["matches_bounds"]
        # The cached operator diag(1, 4) turned by 45 degrees: same extremes.
        turn = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        turned = frame_module.FrameOperatorFibers(shape, [turn @ np.diag([1.0, 4.0]) @ turn.T])
        object.__setattr__(frame, "operator_fibers", turned)
        out = _verify(frame)
        assert out["sample_check"]
        assert not out["matches_bounds"]

    @pytest.mark.parametrize("kind", ["complex", "quaternion"])
    def test_a_lower_bound_reported_too_high_fails_the_sample_check(self, monkeypatch, kind):
        frame = _scalar_fiber_frames()[kind]
        assert _verify(frame)["sample_check"]
        for module in (scenario_module, oracle):
            monkeypatch.setattr(module, "frame_bounds", lambda f: _raised_lower(frame_bounds(f)))
        assert not _verify(frame)["sample_check"]

    @pytest.mark.parametrize("kind", ["complex", "quaternion"])
    def test_a_wrong_projection_leaves_the_verdict_unchanged(self, monkeypatch, kind):
        frame = _scalar_fiber_frames()[kind]
        want = _verify(frame)

        def wrong(sub, x):
            return x * 2.0

        for module in (submodule, frame_module, oracle):
            monkeypatch.setattr(module, "project", wrong, raising=False)
        assert _verify(frame) == want


def _double(frame) -> None:
    """Double the frame's cached operator and its decided bounds: the fast
    path then agrees with itself, and only the oracle can tell."""
    bounds = frame_bounds(frame)
    blocks = {m: 2.0 * b for m, b in frame.operator_fibers.blocks.items()}
    doubled = dataclasses.replace(
        bounds,
        lower=AlgebraElement.from_real(np.sqrt(2.0) * bounds.lower.real_parts(), frame.shape.kind),
        upper=AlgebraElement.from_real(np.sqrt(2.0) * bounds.upper.real_parts(), frame.shape.kind),
        scalar_lower=2.0 * bounds.scalar_lower,
        scalar_upper=2.0 * bounds.scalar_upper,
        per_fiber=tuple((2.0 * lo, 2.0 * hi) for lo, hi in bounds.per_fiber),
    )
    object.__setattr__(frame, "operator_fibers", frame_module.FrameOperatorFibers(frame.shape, blocks))
    object.__setattr__(frame, "_bounds", doubled)


class TestRelativeSlack:
    @pytest.mark.parametrize("kind", [COMPLEX, QUATERNION])
    @pytest.mark.parametrize("w", [1e-6, 1.0, 1e6, 1e150])
    def test_a_doubled_operator_is_caught_at_every_scale(self, kind, w):
        frame = assemble_block_frame(kind, [[1, 2], [2, 3], [1, 3]], [[w] * 3] * 3)
        out = _verify(frame)
        assert out["matches_bounds"] and out["sample_check"]
        _double(frame)
        out = _verify(frame)
        assert not out["matches_bounds"] and not out["sample_check"]

    def test_each_fiber_is_checked_at_its_own_scale(self):
        # Fiber 2 is fiber 1 at 1e-12 of its scale, apart from its spans.
        shape = ModuleShape(COMPLEX, (2, 2))
        subs = [
            span_submodule(shape, [[[1.0, 0.0]], [[1.0, 0.0]]]),
            span_submodule(shape, [[[0.0, 1.0]], [[1.0, 1.0]]]),
        ]
        frame = WeightedFrame(subs, WeightSequence.from_matrix(COMPLEX, [[1, 1e-6], [2, 2e-6]]))
        out = _verify(frame)
        assert out["matches_bounds"] and out["sample_check"]
        # The small fiber's cached operator 1.5 times too large.
        blocks = frame.operator_fibers.blocks[2] * np.array([1.0, 1.5])[:, None, None]
        operator = frame_module.FrameOperatorFibers(shape, {2: blocks})
        object.__setattr__(frame, "operator_fibers", operator)
        assert not _verify(frame)["matches_bounds"]
