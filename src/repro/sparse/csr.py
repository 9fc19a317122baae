"""A from-scratch compressed-sparse-row matrix.

The paper (§III-A) stores the training set in CSR and co-locates the
per-sample metadata with the rows; kernel rows are recomputed on the fly
against this structure instead of being cached.  This module implements
exactly the operations the solvers need, all vectorized with numpy:

- gather of row subsets (for shrinking / ring exchange) and zero-copy
  contiguous row slices (block partitioning),
- sparse-matrix * sparse-vector products (the gradient-update hot path),
- a tiled sparse × sparseᵀ product producing a dense block of pairwise
  row inner products (the blocked kernel-evaluation engine),
- squared row norms (RBF kernel precomputation),
- compact binary (de)serialization (the ring exchange payload).
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Sequence, Tuple

import numpy as np

_MAGIC = b"RCSR"
_HEADER = struct.Struct("<4sqqq")  # magic, nrows, ncols, nnz

#: default tile width for :meth:`CSRMatrix.dot_csr_t` — bounds the
#: per-tile dense scratch at roughly ``tile_rows × max(ncols, nnz)``
#: doubles while keeping the tile loop out of the Python-overhead regime
DEFAULT_TILE_ROWS = 256

#: cap on the per-tile ``(tile_rows, nnz)`` gather scratch of
#: :meth:`CSRMatrix.dot_csr_t`, in doubles (512K ≈ 4 MiB) — same-sized
#: tiles recycle through the allocator instead of page-faulting fresh
#: tens-of-MiB blocks when the left operand is large
TILE_BUDGET_ELEMS = 1 << 19


class CSRError(ValueError):
    """Structurally invalid CSR input."""


class CSRMatrix:
    """Immutable CSR matrix of float64 values.

    Parameters
    ----------
    data, indices, indptr:
        Standard CSR arrays.  ``indptr`` has ``nrows + 1`` entries;
        row ``i`` occupies ``data[indptr[i]:indptr[i+1]]``.
    shape:
        ``(nrows, ncols)``.
    check:
        Validate structural invariants (on by default; disable only on
        internally-constructed matrices).
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: Tuple[int, int],
        *,
        check: bool = True,
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            self._validate()

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if nrows < 0 or ncols < 0:
            raise CSRError(f"negative shape {self.shape}")
        if self.indptr.shape != (nrows + 1,):
            raise CSRError(
                f"indptr length {self.indptr.shape[0]} != nrows+1 ({nrows + 1})"
            )
        if nrows and self.indptr[0] != 0:
            raise CSRError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise CSRError("indptr must be nondecreasing")
        nnz = int(self.indptr[-1]) if nrows else 0
        if self.data.shape[0] != nnz or self.indices.shape[0] != nnz:
            raise CSRError(
                f"data/indices length {self.data.shape[0]}/{self.indices.shape[0]} "
                f"inconsistent with indptr nnz {nnz}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= ncols):
            raise CSRError("column index out of range")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSRMatrix":
        """Build from a 2-D dense array, dropping entries with |v| <= tol."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise CSRError(f"expected 2-D array, got ndim={dense.ndim}")
        mask = np.abs(dense) > tol
        counts = mask.sum(axis=1)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return cls(dense[rows, cols], cols, indptr, dense.shape, check=False)

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Tuple[np.ndarray, np.ndarray]],
        ncols: int,
        *,
        check: bool = True,
    ) -> "CSRMatrix":
        """Build from per-row ``(indices, values)`` pairs.

        ``check=False`` skips validation, for rows taken from an
        already validated matrix.
        """
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        idx_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        for i, (idx, val) in enumerate(rows):
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=np.float64)
            if idx.shape != val.shape:
                raise CSRError(f"row {i}: indices/values length mismatch")
            indptr[i + 1] = indptr[i] + idx.size
            idx_parts.append(idx)
            val_parts.append(val)
        indices = np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64)
        data = np.concatenate(val_parts) if val_parts else np.empty(0, np.float64)
        return cls(data, indices, indptr, (len(rows), ncols), check=check)

    @classmethod
    def empty(cls, ncols: int) -> "CSRMatrix":
        return cls(
            np.empty(0), np.empty(0, np.int64), np.zeros(1, np.int64), (0, ncols),
            check=False,
        )

    @classmethod
    def vstack(cls, blocks: Iterable["CSRMatrix"]) -> "CSRMatrix":
        """Stack row blocks (all must share ncols)."""
        blocks = list(blocks)
        if not blocks:
            raise CSRError("vstack of zero blocks")
        ncols = blocks[0].shape[1]
        for b in blocks:
            if b.shape[1] != ncols:
                raise CSRError("vstack column-count mismatch")
        data = np.concatenate([b.data for b in blocks])
        indices = np.concatenate([b.indices for b in blocks])
        nrows = sum(b.shape[0] for b in blocks)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        pos = 0
        offset = 0
        for b in blocks:
            n = b.shape[0]
            indptr[pos + 1 : pos + n + 1] = b.indptr[1:] + offset
            offset += int(b.indptr[-1])
            pos += n
        return cls(data, indices, indptr, (nrows, ncols), check=False)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def avg_row_nnz(self) -> float:
        return self.nnz / self.shape[0] if self.shape[0] else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4f})"
        )

    def nbytes(self) -> int:
        """In-memory footprint of the three CSR arrays."""
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    # ------------------------------------------------------------------
    # row access / gather
    # ------------------------------------------------------------------
    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of (indices, values) for row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"row {i} out of range for {self.shape[0]} rows")
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def row_nnz(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def take_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Gather a row subset (in the given order) into a new matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise IndexError("row index out of range in take_rows")
        lens = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        nnz = int(indptr[-1])
        # vectorized gather of the value/index ranges
        gather = _range_gather(self.indptr[rows], lens, nnz)
        return CSRMatrix(
            self.data[gather],
            self.indices[gather],
            indptr,
            (rows.size, self.shape[1]),
            check=False,
        )

    def row_slice(self, lo: int, hi: int) -> "CSRMatrix":
        """Zero-copy view of the contiguous row range ``[lo, hi)``.

        ``data`` and ``indices`` are slices (views) of this matrix's
        arrays; only the ``hi - lo + 1`` indptr entries are newly
        allocated.  Use this instead of ``take_rows(np.arange(lo, hi))``
        wherever a block-row shard is read-only — it costs O(rows)
        instead of O(nnz).
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.shape[0]:
            raise IndexError(
                f"row slice [{lo}, {hi}) invalid for {self.shape[0]} rows"
            )
        a, b = int(self.indptr[lo]), int(self.indptr[hi])
        return CSRMatrix(
            self.data[a:b],
            self.indices[a:b],
            self.indptr[lo : hi + 1] - a,
            (hi - lo, self.shape[1]),
            check=False,
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        rows = np.repeat(
            np.arange(self.shape[0]), np.diff(self.indptr).astype(np.int64)
        )
        out[rows, self.indices] = self.data
        return out

    # ------------------------------------------------------------------
    # numeric kernels (the solver hot path)
    # ------------------------------------------------------------------
    def row_norms_sq(self) -> np.ndarray:
        """||x_i||^2 for every row (vectorized)."""
        return _segment_sums(self.data * self.data, self.indptr)

    def dot_sparse_vec(
        self, vec_indices: np.ndarray, vec_values: np.ndarray
    ) -> np.ndarray:
        """X @ v for a sparse vector v given as (indices, values).

        This is the gradient-update hot path: one call per working-set
        sample per iteration, producing the dot products of every local
        row with that sample.
        """
        dense = np.zeros(self.shape[1])
        dense[vec_indices] = vec_values
        return self.dot_dense_vec(dense)

    def dot_dense_vec(self, dense: np.ndarray) -> np.ndarray:
        """X @ v for a dense vector v of length ncols."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape != (self.shape[1],):
            raise CSRError(
                f"vector of shape {dense.shape} incompatible with ncols {self.shape[1]}"
            )
        prod = self.data * dense[self.indices]
        return _segment_sums(prod, self.indptr)

    def dot_csr_t(
        self, other: "CSRMatrix", *, tile_rows: int = DEFAULT_TILE_ROWS
    ) -> np.ndarray:
        """Dense ``self @ otherᵀ`` — every pairwise row inner product.

        The product is computed tile-at-a-time over ``other``'s rows:
        each tile is scattered into a dense ``(t, ncols)`` scratch, the
        nonzeros of ``self`` are gathered against it, and per-row segment
        sums produce ``t`` output columns at once.  ``tile_rows`` is an
        upper bound — the effective tile width also caps the ``(t, nnz)``
        gather scratch at :data:`TILE_BUDGET_ELEMS` doubles, so a very
        dense ``self`` shrinks the tiles instead of blowing past the
        allocator's reuse threshold (the tiling never affects the
        result, bitwise; see below).

        Column ``j`` of the result is produced by exactly the same
        scatter / gather / segment-sum sequence as
        ``self.dot_sparse_vec(*other.row(j))``, so the blocked product is
        *bitwise* identical to the row-at-a-time path — the property that
        lets the solvers batch kernel evaluations without perturbing
        their deterministic iteration sequences.
        """
        if other.shape[1] != self.shape[1]:
            raise CSRError(
                f"dot_csr_t column mismatch: {self.shape[1]} vs {other.shape[1]}"
            )
        if tile_rows < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        n, m = self.shape[0], other.shape[0]
        out = np.zeros((n, m))
        if n == 0 or m == 0 or self.nnz == 0:
            return out
        tile_rows = max(1, min(tile_rows, TILE_BUDGET_ELEMS // self.nnz))
        for lo in range(0, m, tile_rows):
            hi = min(lo + tile_rows, m)
            a, b = int(other.indptr[lo]), int(other.indptr[hi])
            dense = np.zeros((hi - lo, self.shape[1]))
            rows = np.repeat(
                np.arange(hi - lo), np.diff(other.indptr[lo : hi + 1])
            )
            dense[rows, other.indices[a:b]] = other.data[a:b]
            prod = dense.take(self.indices, axis=1)
            prod *= self.data
            out[:, lo:hi] = _segment_sums_2d(prod, self.indptr).T
        return out

    def dot_rows(self, i: int, j: int) -> float:
        """<x_i, x_j> between two rows of this matrix."""
        ai, av = self.row(i)
        bi, bv = self.row(j)
        return sparse_sparse_dot(ai, av, bi, bv)

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """X @ D for a dense (ncols, k) matrix; returns (nrows, k)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim == 1:
            return self.dot_dense_vec(dense)
        out = np.empty((self.shape[0], dense.shape[1]))
        for k in range(dense.shape[1]):
            out[:, k] = self.dot_dense_vec(dense[:, k])
        return out

    def transpose(self) -> "CSRMatrix":
        """The transpose, as a new CSR matrix (CSC view of this one).

        §III-A notes the paper sticks to basic CSR and leaves other
        formats to future work; the transpose enables the column-wise
        operations (feature statistics, CSC-style access) that
        motivated that discussion.
        """
        nrows, ncols = self.shape
        if self.nnz == 0:
            return CSRMatrix(
                np.empty(0),
                np.empty(0, np.int64),
                np.zeros(ncols + 1, np.int64),
                (ncols, nrows),
                check=False,
            )
        rows = np.repeat(
            np.arange(nrows, dtype=np.int64), np.diff(self.indptr)
        )
        order = np.argsort(self.indices, kind="stable")
        new_indices = rows[order]
        new_data = self.data[order]
        counts = np.bincount(self.indices, minlength=ncols)
        new_indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(counts, out=new_indptr[1:])
        return CSRMatrix(
            new_data, new_indices, new_indptr, (ncols, nrows), check=False
        )

    def col_nnz(self) -> np.ndarray:
        """Nonzero count per column."""
        return np.bincount(self.indices, minlength=self.shape[1]).astype(
            np.int64
        )

    # ------------------------------------------------------------------
    # serialization (ring-exchange payloads)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Compact binary encoding: header + indptr + indices + data."""
        header = _HEADER.pack(_MAGIC, self.shape[0], self.shape[1], self.nnz)
        return b"".join(
            (header, self.indptr.tobytes(), self.indices.tobytes(), self.data.tobytes())
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CSRMatrix":
        if len(blob) < _HEADER.size:
            raise CSRError("truncated CSR blob (no header)")
        magic, nrows, ncols, nnz = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise CSRError(f"bad CSR magic {magic!r}")
        off = _HEADER.size
        need = off + 8 * (nrows + 1) + 8 * nnz + 8 * nnz
        if len(blob) != need:
            raise CSRError(f"CSR blob length {len(blob)} != expected {need}")
        indptr = np.frombuffer(blob, dtype=np.int64, count=nrows + 1, offset=off)
        off += indptr.nbytes
        indices = np.frombuffer(blob, dtype=np.int64, count=nnz, offset=off)
        off += indices.nbytes
        data = np.frombuffer(blob, dtype=np.float64, count=nnz, offset=off)
        return cls(data.copy(), indices.copy(), indptr.copy(), (nrows, ncols))

    # ------------------------------------------------------------------
    # comparisons (tests)
    # ------------------------------------------------------------------
    def allclose(self, other: "CSRMatrix", rtol: float = 1e-12) -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data, rtol=rtol)
        )


def sparse_sparse_dot(
    ai: np.ndarray, av: np.ndarray, bi: np.ndarray, bv: np.ndarray
) -> float:
    """Dot product of two sparse vectors with *sorted* index arrays."""
    if ai.size == 0 or bi.size == 0:
        return 0.0
    # match indices via searchsorted (both sides sorted)
    pos = np.searchsorted(bi, ai)
    pos = np.minimum(pos, bi.size - 1)
    hit = bi[pos] == ai
    return float(np.dot(av[hit], bv[pos[hit]]))


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values`` segmented by ``indptr`` — vectorized.

    Uses ``np.add.reduceat`` rather than a cumsum difference so each
    row's sum depends only on that row's entries.  This keeps per-row
    results bitwise identical no matter how the matrix is partitioned
    into blocks — the property that makes the distributed solver's
    iteration sequence independent of the process count.
    """
    nrows = indptr.shape[0] - 1
    if nrows == 0:
        return np.zeros(0)
    nnz = int(indptr[-1])
    if nnz == 0:
        return np.zeros(nrows)
    starts = indptr[:-1]
    # reduceat rejects indices == len(values); those belong to trailing
    # empty rows, which the empty-row mask zeroes anyway
    valid = starts < nnz
    out = np.zeros(nrows)
    out[valid] = np.add.reduceat(values, starts[valid])
    # reduceat yields values[start] for empty segments; zero them
    empty = indptr[1:] == indptr[:-1]
    if empty.any():
        out[empty] = 0.0
    return out


def _segment_sums_2d(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row-segmented sums of each row of a 2-D ``values`` array.

    Each row of ``values`` is one flattened ``(nnz,)`` product vector;
    the rows are summed with a *single* ``np.add.reduceat`` over the
    flattened array, replicating the per-row segment starts at offsets
    of ``nnz``.  Because ``indptr[0] == 0`` is always a valid start, the
    last valid segment of row ``j`` ends exactly at ``(j + 1) * nnz`` —
    the same extent it has in the 1-D call — so every ``(row, segment)``
    pair is reduced over the same elements with the same reduction as
    :func:`_segment_sums` on that row alone, and every output element is
    bitwise identical to the 1-D path.  (A 2-D ``reduceat`` along
    ``axis=1`` computes the same thing but pays a large per-segment
    dispatch cost; the flat form runs at the 1-D inner-loop speed.)
    """
    t = values.shape[0]
    nrows = indptr.shape[0] - 1
    if nrows == 0:
        return np.zeros((t, 0))
    nnz = int(indptr[-1])
    if nnz == 0 or t == 0:
        return np.zeros((t, nrows))
    starts = indptr[:-1]
    # reduceat rejects indices == len(values); those belong to trailing
    # empty rows, which the empty-row mask zeroes anyway
    valid = starts < nnz
    sv = starts[valid].astype(np.intp, copy=False)
    starts_flat = (sv[None, :] + (np.arange(t, dtype=np.intp) * nnz)[:, None]).ravel()
    flat = np.ascontiguousarray(values).reshape(-1)
    seg = np.add.reduceat(flat, starts_flat).reshape(t, sv.size)
    out = np.zeros((t, nrows))
    out[:, valid] = seg
    # reduceat yields values[start] for empty segments; zero them
    empty = indptr[1:] == indptr[:-1]
    if empty.any():
        out[:, empty] = 0.0
    return out


def _range_gather(starts: np.ndarray, lens: np.ndarray, total: int) -> np.ndarray:
    """Indices concatenating ranges [starts[k], starts[k]+lens[k]) — vectorized.

    Equivalent to ``np.concatenate([np.arange(s, s+n) for s, n in
    zip(starts, lens)])`` without the Python loop.
    """
    if total == 0:
        return np.empty(0, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    # output offset at which each range begins
    out_starts = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=out_starts[1:])
    # element k of the output is: start of its range + position within it
    return np.repeat(starts, lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(out_starts, lens)
    )
