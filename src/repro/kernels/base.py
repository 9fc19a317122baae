"""Kernel function interface.

A kernel evaluates Φ(x, z) between samples.  The solvers need three
shapes of evaluation, all vectorized:

- ``block``: Φ(a_i, b_j) for every row pair of two CSR blocks — one
  tiled CSR×CSRᵀ product plus one vectorized kernel map.  This is the
  blocked kernel-evaluation engine behind the reconstruction fold
  (Alg. 3), batch prediction, serving slabs (the support vectors on
  the left, the request rows on the right) and the baseline's cache
  fills;
- ``row_against_block``: Φ(x, x_i) for one sample against every row of a
  CSR block — the gradient-update hot path (Eq. 2);
- ``pair``: Φ(x_i, x_j) for one pair — the ρ computation (Eq. 7).

Column ``j`` of ``block(A, na, B, nb)`` is bitwise identical to
``row_against_block(A, na, *B.row(j), nb[j])`` — every kernel map is a
pure elementwise expression, so batching changes neither values nor the
solvers' deterministic iteration sequences.

For kernels that depend on ||x||² (RBF), callers pass precomputed squared
row norms so the hot path touches each nonzero exactly once.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from ..sparse.csr import CSRMatrix, sparse_sparse_dot

#: A sample exchanged between ranks: (indices, values, ||x||^2)
SampleRow = Tuple[np.ndarray, np.ndarray, float]


class Kernel(abc.ABC):
    """Base class for kernel functions Φ."""

    #: short identifier used by parameter dumps / registry lookups
    name: str = "abstract"

    @abc.abstractmethod
    def from_dots(
        self, dots: np.ndarray, norms_a: np.ndarray, norm_b: float
    ) -> np.ndarray:
        """Map raw inner products <x_i, z> to kernel values Φ(x_i, z).

        ``norms_a`` are ||x_i||² for the block rows, ``norm_b`` is ||z||².
        Kernels that ignore norms (linear, polynomial, sigmoid) may ignore
        those arguments.
        """

    def block(
        self,
        A: CSRMatrix,
        norms_a: np.ndarray,
        B: CSRMatrix,
        norms_b: np.ndarray,
        *,
        tile_rows: Optional[int] = None,
    ) -> np.ndarray:
        """Φ(a_i, b_j) for every row pair, as a dense ``(A.nrows, B.nrows)``
        array — the batched counterpart of ``row_against_block``.

        One tiled SpGEMM produces all the inner products and one
        vectorized map applies the kernel, replacing ``B.nrows`` Python
        iterations with a handful of numpy calls.  ``A`` is the operand
        whose nonzeros are walked (the rows a rank stores), ``B`` the
        one scattered into dense tiles; ``tile_rows`` bounds the SpGEMM
        scratch (see :meth:`CSRMatrix.dot_csr_t`).
        """
        dots = A.dot_csr_t(B, tile_rows=tile_rows)
        return self.block_from_dots(
            dots,
            np.asarray(norms_a, dtype=np.float64),
            np.asarray(norms_b, dtype=np.float64),
        )

    def block_from_dots(
        self, dots: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray
    ) -> np.ndarray:
        """Map a ``(len(norms_a), len(norms_b))`` slab of inner products to
        kernel values.  The default broadcasts :meth:`from_dots`; kernels
        override it with an explicit vectorized expression.
        """
        return self.from_dots(dots, norms_a[:, None], norms_b[None, :])

    def row_against_block(
        self,
        block: CSRMatrix,
        block_norms_sq: np.ndarray,
        idx: np.ndarray,
        vals: np.ndarray,
        norm_sq: float,
    ) -> np.ndarray:
        """Φ(z, x_i) for every row i of ``block``; z = (idx, vals)."""
        dots = block.dot_sparse_vec(idx, vals)
        return self.from_dots(dots, block_norms_sq, norm_sq)

    def pair(self, a: SampleRow, b: SampleRow) -> float:
        """Φ between two sample rows."""
        ai, av, an = a
        bi, bv, bn = b
        dot = sparse_sparse_dot(ai, av, bi, bv)
        out = self.from_dots(
            np.asarray([dot]), np.asarray([an]), bn
        )
        return float(out[0])

    def self_value(self, norm_sq: float) -> float:
        """Φ(x, x) given ||x||²."""
        one = np.asarray([norm_sq])
        return float(self.from_dots(one, np.asarray([norm_sq]), norm_sq)[0])

    def diag(self, norms_sq: np.ndarray) -> np.ndarray:
        """Φ(x_i, x_i) for a whole block, given squared row norms.

        Since <x, x> = ||x||², the diagonal is one vectorized
        ``from_dots`` call over the whole norms vector (dots, norms_a and
        norm_b all equal ||x||² elementwise).
        """
        norms_sq = np.asarray(norms_sq, dtype=np.float64)
        return self.from_dots(norms_sq, norms_sq, norms_sq)

    def params(self) -> dict:
        """Hyperparameters, for reports and model serialization."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"
