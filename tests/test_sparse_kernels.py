"""The one summation order: every SpMV and DOT, C engine and numpy.

Each row (and each dot product) must be accumulated strictly left to
right from ``+0.0`` — the datapath's order — by both implementations
of :mod:`repro.sparse.kernels`. ``"numpy"`` calls the no-compiler path
directly; ``"platform"`` goes through the public entry points, which
use the C engine when this host has one. The reference is a plain
Python loop, whose float arithmetic is the same IEEE-754 double
arithmetic.
"""

import numpy as np
import pytest

from repro.faults.detect import kkt_residuals, solution_ok
from repro.hw import BatchMatrixResource, MatrixResource
from repro.qp import QProblem
from repro.sparse import CSCMatrix, CSRMatrix
from repro.sparse import kernels
from repro.sparse.kernels import CSRKernel

IMPLS = ("numpy", "platform")

#: Row 0 dwarfs the rest: a prefix sum over all rows loses rows 1-2.
BIG_ROW = [[1e16, 0.0], [0.0, 1.0], [0.0, 3.0]]
#: Row 0 overflows to inf: a prefix sum turns every later row into NaN.
OVERFLOW_ROW = [[1e300, 0.0], [0.0, 1.0], [0.0, 3.0]]
CASES = [(BIG_ROW, [1.0, 1.0], [1e16, 1.0, 3.0]),
         (OVERFLOW_ROW, [1e10, 1.0], [np.inf, 1.0, 3.0])]


def sequential_matvec(matrix: CSRMatrix, x) -> np.ndarray:
    out = np.empty(matrix.shape[0])
    for r in range(matrix.shape[0]):
        acc = 0.0
        for k in range(matrix.indptr[r], matrix.indptr[r + 1]):
            acc += float(matrix.data[k]) * float(x[matrix.indices[k]])
        out[r] = acc
    return out


def sequential_dot(a, b) -> float:
    acc = 0.0
    for u, v in zip(a, b):
        acc += float(u) * float(v)
    return acc


def matvec(impl: str, matrix: CSRMatrix, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if impl == "numpy":
        return matrix.kernel().numpy_apply(x, np.empty(matrix.shape[0]))
    return matrix.matvec(x)


def batch_matvec(impl: str, mats: list, xs: list) -> np.ndarray:
    resource = BatchMatrixResource("M", mats[0], 1, 1, len(mats))
    resource.kernel.val[...] = np.stack([mat.data for mat in mats], axis=1)
    x = np.ascontiguousarray(np.stack(xs, axis=1))
    out = np.empty((mats[0].shape[0], len(mats)))
    if impl == "numpy":
        resource.kernel.numpy_apply(x, out)
    else:
        resource.kernel.apply(x, out)
    return out


def dot(impl: str, a, b, out=None):
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if impl == "numpy":
        return kernels.numpy_dot(a, b, out)
    return kernels.dot(a, b, out)


def assert_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


def long_rows(seed: int = 0) -> CSRMatrix:
    """Rows of 0..40 entries with wildly mixed magnitudes: any
    reassociation (pairwise, blocked, prefix-difference) shows."""
    rng = np.random.default_rng(seed)
    dense = (rng.standard_normal((30, 40))
             * 10.0 ** rng.integers(-8, 9, size=(30, 40)))
    dense[rng.random((30, 40)) < 0.3] = 0.0
    dense[3] = 0.0                      # an empty row
    return CSRMatrix.from_dense(dense)


@pytest.mark.parametrize("impl", IMPLS)
class TestRowOrder:
    @pytest.mark.parametrize("rows,x,expected", CASES)
    def test_matvec_is_row_local(self, impl, rows, x, expected):
        assert_bits(matvec(impl, CSRMatrix.from_dense(rows), x), expected)

    @pytest.mark.parametrize("rows,x,expected", CASES)
    def test_matrix_resource(self, impl, rows, x, expected):
        resource = MatrixResource("M", CSRMatrix.from_dense(rows),
                                  spmv_cycles=1, cvb_depth=1)
        x = np.asarray(x)
        got = (resource.kernel.numpy_apply(x, np.empty(3))
               if impl == "numpy" else resource.apply(x))
        assert_bits(got, expected)

    @pytest.mark.parametrize("rows,x,expected", CASES)
    def test_lane_minor_batch(self, impl, rows, x, expected):
        mats = [CSRMatrix.from_dense(rows),
                CSRMatrix.from_dense(np.asarray(rows) * 0.5)]
        out = batch_matvec(impl, mats, [x, x])
        assert_bits(out[:, 0], expected)
        assert_bits(out[:, 1], sequential_matvec(mats[1], x))

    def test_rows_longer_than_pairwise_block(self, impl):
        matrix = long_rows()
        assert matrix.row_nnz().max() > 8
        x = np.random.default_rng(1).standard_normal(40)
        assert_bits(matvec(impl, matrix, x), sequential_matvec(matrix, x))

    def test_long_rows_lane_minor(self, impl):
        mats = [long_rows(), long_rows()]
        mats[1].data[:] = mats[1].data[::-1]
        rng = np.random.default_rng(2)
        xs = [rng.standard_normal(40), rng.standard_normal(40)]
        out = batch_matvec(impl, mats, xs)
        for lane in range(2):
            assert_bits(out[:, lane], sequential_matvec(mats[lane], xs[lane]))

    def test_negative_zero_products_sum_to_positive_zero(self, impl):
        matrix = CSRMatrix((2, 2), [-0.0, -1.0, 2.0], [0, 1, 1],
                           [0, 2, 3])
        y = matvec(impl, matrix, [1.0, 0.0])
        assert_bits(y, [0.0, 0.0])
        assert not np.signbit(y).any()

    def test_empty_rows_and_no_entries(self, impl):
        matrix = CSRMatrix((3, 2), [2.0], [1], [0, 0, 1, 1])
        assert_bits(matvec(impl, matrix, [5.0, 7.0]), [0.0, 14.0, 0.0])
        assert_bits(matvec(impl, CSRMatrix.zeros((3, 2)), [1.0, 2.0]),
                    np.zeros(3))
        assert_bits(matvec(impl, CSRMatrix.zeros((0, 2)), [1.0, 2.0]),
                    np.zeros(0))
        out = batch_matvec(impl, [CSRMatrix.zeros((3, 2))] * 2,
                           [[1.0, 2.0], [3.0, 4.0]])
        assert_bits(out, np.zeros((3, 2)))

    def test_csc_rmatvec_is_column_local(self, impl):
        csc = CSCMatrix.from_dense(np.asarray(BIG_ROW).T)
        if impl == "numpy":
            kernel = CSRKernel((3, 2), csc.data, csc.indices, csc.indptr)
            got = kernel.numpy_apply(np.ones(2), np.empty(3))
        else:
            got = csc.rmatvec(np.ones(2))
        assert_bits(got, [1e16, 1.0, 3.0])


@pytest.mark.parametrize("impl", IMPLS)
class TestDotOrder:
    def test_long_dot_is_sequential(self, impl):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200)
        b = rng.standard_normal(200)
        assert dot(impl, a, b) == sequential_dot(a, b)

    def test_lane_minor_dot(self, impl):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((50, 3)) * 1e8
        b = rng.standard_normal((50, 3))
        out = np.empty(3)
        dot(impl, a, b, out)
        assert_bits(out, [sequential_dot(a[:, j], b[:, j])
                          for j in range(3)])

    def test_edge_values(self, impl):
        got = dot(impl, [-0.0, -0.0], [1.0, 1.0])
        assert got == 0.0 and not np.signbit(got)
        assert dot(impl, np.zeros(0), np.zeros(0)) == 0.0
        assert dot(impl, [1e16, 1.0, -1e16, 3.0],
                   [1.0, 1.0, 1.0, 1.0]) == sequential_dot(
                       [1e16, 1.0, -1e16, 3.0], [1.0] * 4)


def test_dot_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        kernels.dot(np.ones(3), np.ones(4))


class TestKKTRecheck:
    """The silent-corruption referee must see each row on its own."""

    def problem(self, rows):
        a = CSRMatrix.from_dense(rows)
        return QProblem(CSRMatrix.zeros((2, 2)), np.zeros(2), a,
                        np.full(3, -np.inf), np.full(3, np.inf))

    def test_big_row_does_not_erase_small_rows(self):
        problem = self.problem(BIG_ROW)
        x, y, z = np.ones(2), np.zeros(3), np.array([1e16, 1.0, 3.0])
        assert kkt_residuals(problem, x, y, z)["pri_res"] == 0.0
        assert solution_ok(problem, x, y, z, eps_abs=1e-6, eps_rel=0.0)

    def test_overflow_row_stays_in_its_row(self):
        problem = self.problem(OVERFLOW_ROW)
        x, y = np.array([1e10, 1.0]), np.zeros(3)
        z = np.array([1e300, 1.0, 3.0])
        assert kkt_residuals(problem, x, y, z)["pri_res"] == np.inf
