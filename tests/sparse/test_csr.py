"""CSR matrix unit tests against dense references."""

import numpy as np
import pytest

from repro.sparse import CSRError, CSRMatrix, sparse_sparse_dot


def rand_dense(n, d, density=0.4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * (rng.random((n, d)) < density)


class TestConstruction:
    def test_from_dense_roundtrip(self):
        dense = rand_dense(7, 5)
        X = CSRMatrix.from_dense(dense)
        assert np.array_equal(X.to_dense(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(CSRError):
            CSRMatrix.from_dense(np.ones(5))

    def test_from_rows(self):
        rows = [
            (np.array([0, 3]), np.array([1.0, 2.0])),
            (np.array([], dtype=int), np.array([])),
            (np.array([1]), np.array([-1.0])),
        ]
        X = CSRMatrix.from_rows(rows, ncols=4)
        expect = np.array([[1, 0, 0, 2], [0, 0, 0, 0], [0, -1, 0, 0.0]])
        assert np.array_equal(X.to_dense(), expect)

    def test_from_rows_length_mismatch(self):
        with pytest.raises(CSRError):
            CSRMatrix.from_rows([(np.array([0, 1]), np.array([1.0]))], 4)

    def test_empty(self):
        X = CSRMatrix.empty(4)
        assert X.shape == (0, 4)
        assert X.nnz == 0

    def test_validation_bad_indptr(self):
        with pytest.raises(CSRError):
            CSRMatrix(
                np.ones(2), np.array([0, 1]), np.array([0, 2, 1]), (2, 2)
            )

    def test_validation_index_out_of_range(self):
        with pytest.raises(CSRError):
            CSRMatrix(np.ones(1), np.array([5]), np.array([0, 1]), (1, 3))

    def test_validation_nnz_mismatch(self):
        with pytest.raises(CSRError):
            CSRMatrix(np.ones(3), np.array([0, 1]), np.array([0, 2]), (1, 3))

    def test_vstack(self):
        a = rand_dense(3, 4, seed=1)
        b = rand_dense(2, 4, seed=2)
        X = CSRMatrix.vstack([CSRMatrix.from_dense(a), CSRMatrix.from_dense(b)])
        assert np.array_equal(X.to_dense(), np.vstack([a, b]))

    def test_vstack_rejects_mismatched_cols(self):
        with pytest.raises(CSRError):
            CSRMatrix.vstack(
                [CSRMatrix.empty(3), CSRMatrix.empty(4)]
            )

    def test_vstack_empty_list(self):
        with pytest.raises(CSRError):
            CSRMatrix.vstack([])


class TestProperties:
    def test_nnz_density(self):
        X = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert X.nnz == 2
        assert X.density == 0.5
        assert X.avg_row_nnz == 1.0

    def test_nbytes_positive(self):
        X = CSRMatrix.from_dense(rand_dense(4, 4))
        assert X.nbytes() > 0

    def test_row_view(self):
        dense = np.array([[0.0, 3.0, 0.0, 4.0]])
        X = CSRMatrix.from_dense(dense)
        idx, vals = X.row(0)
        assert idx.tolist() == [1, 3]
        assert vals.tolist() == [3.0, 4.0]

    def test_row_out_of_range(self):
        X = CSRMatrix.from_dense(rand_dense(2, 2))
        with pytest.raises(IndexError):
            X.row(5)

    def test_row_nnz(self):
        X = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert X.row_nnz(0) == 2
        assert X.row_nnz(1) == 0


class TestNumeric:
    @pytest.mark.parametrize("seed", range(5))
    def test_dot_dense_vec(self, seed):
        dense = rand_dense(9, 6, seed=seed)
        X = CSRMatrix.from_dense(dense)
        v = np.random.default_rng(seed + 100).normal(size=6)
        assert np.allclose(X.dot_dense_vec(v), dense @ v)

    def test_dot_dense_vec_shape_check(self):
        X = CSRMatrix.from_dense(rand_dense(3, 4))
        with pytest.raises(CSRError):
            X.dot_dense_vec(np.ones(5))

    def test_dot_sparse_vec(self):
        dense = rand_dense(6, 5, seed=3)
        X = CSRMatrix.from_dense(dense)
        i, v = X.row(2)
        assert np.allclose(X.dot_sparse_vec(i, v), dense @ dense[2])

    def test_row_norms_sq(self):
        dense = rand_dense(8, 4, seed=4)
        X = CSRMatrix.from_dense(dense)
        assert np.allclose(X.row_norms_sq(), (dense**2).sum(axis=1))

    def test_row_norms_with_empty_rows(self):
        dense = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        X = CSRMatrix.from_dense(dense)
        assert np.allclose(X.row_norms_sq(), [0.0, 5.0, 0.0])

    def test_partition_invariant_row_results(self):
        """The reduceat summation makes per-row results independent of
        which block the row lives in — the determinism keystone."""
        dense = rand_dense(20, 8, seed=7)
        X = CSRMatrix.from_dense(dense)
        v = np.random.default_rng(2).normal(size=8)
        whole = X.dot_dense_vec(v)
        for split in (3, 7, 13):
            top = X.take_rows(np.arange(split))
            bottom = X.take_rows(np.arange(split, 20))
            again = np.concatenate(
                [top.dot_dense_vec(v), bottom.dot_dense_vec(v)]
            )
            assert np.array_equal(whole, again)  # bitwise!


class TestGather:
    def test_take_rows_order(self):
        dense = rand_dense(6, 3, seed=8)
        X = CSRMatrix.from_dense(dense)
        rows = np.array([4, 0, 4, 2])
        assert np.array_equal(X.take_rows(rows).to_dense(), dense[rows])

    def test_take_rows_empty(self):
        X = CSRMatrix.from_dense(rand_dense(3, 3))
        sub = X.take_rows(np.array([], dtype=np.int64))
        assert sub.shape == (0, 3)

    def test_take_rows_out_of_range(self):
        X = CSRMatrix.from_dense(rand_dense(3, 3))
        with pytest.raises(IndexError):
            X.take_rows(np.array([7]))

    def test_take_rows_with_empty_rows(self):
        dense = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        X = CSRMatrix.from_dense(dense)
        rows = np.array([0, 2, 1, 3])
        assert np.array_equal(X.take_rows(rows).to_dense(), dense[rows])


class TestSerialization:
    def test_roundtrip(self):
        X = CSRMatrix.from_dense(rand_dense(7, 9, seed=9))
        Y = CSRMatrix.from_bytes(X.to_bytes())
        assert Y.allclose(X)
        assert Y.shape == X.shape

    def test_roundtrip_empty(self):
        X = CSRMatrix.empty(5)
        Y = CSRMatrix.from_bytes(X.to_bytes())
        assert Y.shape == (0, 5)

    def test_truncated_blob_rejected(self):
        X = CSRMatrix.from_dense(rand_dense(3, 3))
        blob = X.to_bytes()
        with pytest.raises(CSRError):
            CSRMatrix.from_bytes(blob[:10])
        with pytest.raises(CSRError):
            CSRMatrix.from_bytes(blob[:-8])

    def test_bad_magic_rejected(self):
        X = CSRMatrix.from_dense(rand_dense(2, 2))
        blob = b"XXXX" + X.to_bytes()[4:]
        with pytest.raises(CSRError):
            CSRMatrix.from_bytes(blob)


class TestSparseSparseDot:
    def test_matches_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=10) * (rng.random(10) < 0.5)
            b = rng.normal(size=10) * (rng.random(10) < 0.5)
            ai = np.flatnonzero(a)
            bi = np.flatnonzero(b)
            got = sparse_sparse_dot(ai, a[ai], bi, b[bi])
            assert np.isclose(got, a @ b)

    def test_empty_operands(self):
        e = np.array([], dtype=np.int64)
        ev = np.array([])
        assert sparse_sparse_dot(e, ev, e, ev) == 0.0
        assert sparse_sparse_dot(np.array([1]), np.array([2.0]), e, ev) == 0.0


class TestTranspose:
    """Column-wise statistics: what the transpose's rows would hold."""

    def test_col_nnz(self):
        dense = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
        X = CSRMatrix.from_dense(dense)
        assert X.col_nnz().tolist() == [2, 0, 1]
