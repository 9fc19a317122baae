"""The tiled CSR×CSRᵀ product and zero-copy row slices.

``dot_csr_t`` is the substrate of the blocked kernel-evaluation engine;
its contract is stronger than numerical agreement: every column must be
*bitwise* identical to the row-at-a-time ``dot_sparse_vec`` path, for
any tiling, so the solvers can batch without perturbing their
deterministic iteration sequences.  The tiling is bounded by a scratch
budget in both of the operands' dimensions, and never changes a bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse import CSRMatrix
from repro.sparse.csr import CSRError
from tests.conftest import same_bits


def dense_matrices(max_n=12, max_d=8):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_d).flatmap(
            lambda d: arrays(
                np.float64,
                (n, d),
                elements=st.floats(-100, 100, allow_nan=False).map(
                    lambda x: 0.0 if abs(x) < 30 else x  # force sparsity
                ),
            )
        )
    )


def rowwise_reference(A: CSRMatrix, B: CSRMatrix) -> np.ndarray:
    """A @ Bᵀ column-by-column through the pre-existing row path."""
    out = np.empty((A.shape[0], B.shape[0]))
    for j in range(B.shape[0]):
        bi, bv = B.row(j)
        out[:, j] = A.dot_sparse_vec(bi, bv)
    return out


@settings(max_examples=60, deadline=None)
@given(da=dense_matrices(), db=dense_matrices())
def test_matches_dense_product(da, db):
    d = min(da.shape[1], db.shape[1])
    A = CSRMatrix.from_dense(da[:, :d])
    B = CSRMatrix.from_dense(db[:, :d])
    assert np.allclose(A.dot_csr_t(B), da[:, :d] @ db[:, :d].T, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(da=dense_matrices(), db=dense_matrices(), tile=st.integers(1, 15))
def test_bitwise_equals_rowwise_for_any_tiling(da, db, tile):
    """The load-bearing property: tiled SpGEMM == per-row products, in bits."""
    d = min(da.shape[1], db.shape[1])
    A = CSRMatrix.from_dense(da[:, :d])
    B = CSRMatrix.from_dense(db[:, :d])
    out = A.dot_csr_t(B, tile_rows=tile)
    assert np.array_equal(out, rowwise_reference(A, B))


@settings(max_examples=40, deadline=None)
@given(da=dense_matrices())
def test_gram_matrix_symmetric_dots(da):
    A = CSRMatrix.from_dense(da)
    G = A.dot_csr_t(A)
    assert np.allclose(G, G.T, atol=1e-9)


def test_empty_rows_and_empty_matrices():
    d = 5
    A = CSRMatrix.from_dense(
        np.array([[0.0, 0, 0, 0, 0], [1, 0, 2, 0, 0], [0, 0, 0, 0, 0]])
    )
    B = CSRMatrix.from_dense(np.array([[0.0, 0, 0, 0, 0], [3, 0, 0, 0, 4]]))
    out = A.dot_csr_t(B)
    assert np.array_equal(out, rowwise_reference(A, B))
    assert out[0, 0] == 0.0 and out[2, 1] == 0.0 and out[1, 1] == 3.0

    empty = CSRMatrix.empty(d)
    assert A.dot_csr_t(empty).shape == (3, 0)
    assert empty.dot_csr_t(A).shape == (0, 3)
    assert np.array_equal(empty.dot_csr_t(empty), np.zeros((0, 0)))

    all_zero = CSRMatrix.from_dense(np.zeros((4, d)))
    assert np.array_equal(all_zero.dot_csr_t(B), np.zeros((4, 2)))
    assert np.array_equal(B.dot_csr_t(all_zero), np.zeros((2, 4)))


def test_single_tile_vs_many_tiles_identical():
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(23, 7)) * (rng.random((23, 7)) < 0.4)
    A = CSRMatrix.from_dense(dense)
    one = A.dot_csr_t(A, tile_rows=1000)  # everything in one tile
    for tile in (1, 2, 3, 8, 23):
        assert np.array_equal(A.dot_csr_t(A, tile_rows=tile), one)


def test_validation():
    A = CSRMatrix.from_dense(np.ones((2, 3)))
    B = CSRMatrix.from_dense(np.ones((2, 4)))
    with pytest.raises(CSRError):
        A.dot_csr_t(B)
    with pytest.raises(ValueError):
        A.dot_csr_t(A, tile_rows=0)


class _ZerosSpy:
    """Stands in for ``numpy`` inside ``repro.sparse.csr``, recording the
    shape of every ``np.zeros`` scratch array it hands out."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, *args, **kwargs):
        out = np.zeros(shape, *args, **kwargs)
        self.shapes.append(out.shape)
        return out


@pytest.mark.parametrize("budget", [1, 7, 40, 100, 333, 10_000])
def test_dense_tiles_stay_under_the_budget(monkeypatch, budget):
    """A wide right operand is scattered into tiles of at most
    ``max(budget, n_features)`` doubles (at least one row a tile), and
    the product is bitwise the row-at-a-time one for every budget.  The
    left operand holds 4 nonzeros, so the ``(t, nnz)`` gather alone
    would allow tiles of ``budget // 4`` rows."""
    rng = np.random.default_rng(2)
    d = 41  # no other scratch array has 41 columns
    A = CSRMatrix.from_rows(
        [([3, 40], [1.5, -2.0]), ([], []), ([0], [0.25]), ([17], [-3.0])], d
    )
    B = CSRMatrix.from_dense(
        rng.normal(size=(30, d)) * (rng.random((30, d)) < 0.3)
    )
    reference = rowwise_reference(A, B)
    spy = _ZerosSpy()
    monkeypatch.setattr("repro.sparse.csr.TILE_BUDGET_ELEMS", budget)
    monkeypatch.setattr("repro.sparse.csr.np", spy)
    out = A.dot_csr_t(B)
    tiles = [shape[0] for shape in spy.shapes if shape[1:] == (d,)]
    assert sum(tiles) == B.shape[0]
    assert all(rows * d <= max(budget, d) for rows in tiles)
    assert same_bits(out, reference)


# ----------------------------------------------------------------------
# the product's contract: C order, bitwise, one tile or many
# ----------------------------------------------------------------------
def _sparse(rng, n, d, density=0.4, empty_rows=()):
    dense = rng.normal(size=(n, d)) * (rng.random((n, d)) < density)
    dense[:, 0] += 1.0  # no row empty unless asked
    dense[list(empty_rows)] = 0.0
    return CSRMatrix.from_dense(dense)


LEFTS = {
    "no-empty-row": dict(n=9),
    "empty-rows": dict(n=9, empty_rows=(0, 4, 8)),  # first, middle, last
    "trailing-empty": dict(n=9, empty_rows=(7, 8)),
    "one-row": dict(n=1),
}
RIGHTS = {
    "one-row": dict(n=1),
    "one-empty-row": dict(n=1, empty_rows=(0,)),
    "empty-rows": dict(n=7, empty_rows=(1, 6)),
    "many": dict(n=13),
}


@pytest.mark.parametrize("tile", [None, 1, 3])
@pytest.mark.parametrize("right", sorted(RIGHTS))
@pytest.mark.parametrize("left", sorted(LEFTS))
def test_product_is_c_contiguous_and_bitwise(left, right, tile):
    """One tile (the default here) and many tiles both return a
    C-contiguous product bitwise equal to the row-at-a-time one, with
    and without empty rows on either side; a second product against
    the same left operand reuses its segment structure."""
    rng = np.random.default_rng(11)
    A = _sparse(rng, d=6, **LEFTS[left])
    B = _sparse(rng, d=6, **RIGHTS[right])
    reference = rowwise_reference(A, B)
    for _ in range(2):
        out = A.dot_csr_t(B, tile_rows=tile)
        assert out.flags.c_contiguous
        assert out.shape == reference.shape
        assert same_bits(out, reference)


@pytest.mark.parametrize(
    "derive",
    [
        lambda X: X.row_slice(2, 7),
        lambda X: X.row_slice(3, 4),
        lambda X: X.take_rows(np.array([5, 0, 3, 3])),
        lambda X: X.take_rows(np.array([1, 6, 2])),
        lambda X: CSRMatrix.from_rows([X.row(i) for i in (6, 1, 2)], 6),
    ],
    ids=["row_slice", "row_slice-empty", "take_rows", "take_rows-empty",
         "from_rows"],
)
def test_derived_matrix_has_its_own_segments(derive):
    """A matrix derived from one whose segment structure was computed
    (empty rows 1 and 3) gets its own: its products stay bitwise."""
    rng = np.random.default_rng(5)
    X = _sparse(rng, n=8, d=6, empty_rows=(1, 3))
    B = _sparse(rng, n=5, d=6)
    assert same_bits(X.dot_csr_t(B), rowwise_reference(X, B))
    D = derive(X)
    for right in (B, B.row_slice(0, 1)):
        out = D.dot_csr_t(right)
        assert out.flags.c_contiguous
        assert same_bits(out, rowwise_reference(D, right))


# ----------------------------------------------------------------------
# row_slice
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(dense=dense_matrices(), lo=st.integers(0, 12), hi=st.integers(0, 12))
def test_row_slice_matches_take_rows(dense, lo, hi):
    X = CSRMatrix.from_dense(dense)
    lo = lo % (dense.shape[0] + 1)
    hi = lo + hi % (dense.shape[0] - lo + 1)
    view = X.row_slice(lo, hi)
    assert view.allclose(X.take_rows(np.arange(lo, hi)))


def test_row_slice_is_zero_copy():
    rng = np.random.default_rng(1)
    dense = rng.normal(size=(10, 6)) * (rng.random((10, 6)) < 0.5)
    X = CSRMatrix.from_dense(dense)
    view = X.row_slice(2, 8)
    assert np.shares_memory(view.data, X.data)
    assert np.shares_memory(view.indices, X.indices)
    assert view.shape == (6, 6)
    assert np.array_equal(view.to_dense(), dense[2:8])


def test_row_slice_bounds():
    X = CSRMatrix.from_dense(np.ones((4, 2)))
    assert X.row_slice(0, 0).shape == (0, 2)
    assert X.row_slice(4, 4).shape == (0, 2)
    with pytest.raises(IndexError):
        X.row_slice(-1, 2)
    with pytest.raises(IndexError):
        X.row_slice(0, 5)
    with pytest.raises(IndexError):
        X.row_slice(3, 2)
