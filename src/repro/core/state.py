"""Per-rank solver state.

One :class:`LocalBlock` holds a rank's contiguous slice of the training
set and the per-sample data structures the paper co-locates with it
(§III-A): labels, Lagrange multipliers α, gradients γ and the active
(non-shrunk) mask.  The solver's hot path reads a packed mirror of the
active samples, :class:`CompactActiveSet`, rebuilt only when the active
set changes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .sets import up_low_at, up_low_masks


class LocalBlock:
    """A rank's shard of the problem."""

    def __init__(
        self,
        X: CSRMatrix,
        y: np.ndarray,
        global_start: int,
        gamma0: Optional[np.ndarray] = None,
    ) -> None:
        """``gamma0`` is the gradient at α = 0.  The default, −y, is the
        classification dual (Eq. 1); the ε-SVR reduction passes its own
        linear term (see :mod:`repro.core.svr`)."""
        n = X.shape[0]
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (n,):
            raise ValueError(f"{y.shape} labels for {n} local rows")
        self.X = X
        self.y = y
        self.global_start = int(global_start)
        self.n_local = n
        self.norms = X.row_norms_sq()
        self.alpha = np.zeros(n)
        if gamma0 is None:
            gamma0 = -y
        else:
            gamma0 = np.asarray(gamma0, dtype=np.float64)
            if gamma0.shape != (n,):
                raise ValueError(f"{gamma0.shape} gamma0 for {n} local rows")
        self.gamma0 = gamma0.copy()
        self.gamma = gamma0.copy()
        self.active = np.ones(n, dtype=bool)
        #: immutable ring-block descriptor keyed by the support set:
        #: (contrib indices, CSR wire blob, contrib norms).  The blob and
        #: norms depend only on *which* samples have α > 0, so repeated
        #: reconstructions with an unchanged support set skip the CSR
        #: re-serialization (see repro.core.reconstruction._pack_contrib).
        self._descriptor_cache: Optional[Tuple[np.ndarray, bytes, np.ndarray]] = None

    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))

    @property
    def n_shrunk(self) -> int:
        return self.n_local - self.n_active

    def owns_global(self, g: int) -> bool:
        return self.global_start <= g < self.global_start + self.n_local

    def to_local(self, g: int) -> int:
        if not self.owns_global(g):
            raise IndexError(
                f"global index {g} not in local range "
                f"[{self.global_start}, {self.global_start + self.n_local})"
            )
        return g - self.global_start

    def sample_payload(self, local_i: int) -> tuple:
        """The tuple broadcast when this rank's sample joins the working
        set: ``(indices, values, ||x||², y, α)``.

        ``indices``/``values`` are views into the CSR storage: receivers
        get copies off the wire, and the owning rank only reads them.
        """
        idx, vals = self.X.row(local_i)
        return (
            idx,
            vals,
            float(self.norms[local_i]),
            float(self.y[local_i]),
            float(self.alpha[local_i]),
        )


class CompactActiveSet:
    """Packed structure-of-arrays mirror of a rank's active samples.

    The per-iteration hot path (violator scan, γ update, shrink-mask
    evaluation, O(1) active count) reads and writes these contiguous
    arrays directly — no ``flatnonzero`` and no fancy-index gathers per
    iteration.  The structure is recompacted only at the rare events
    that change the active set (shrink elimination, reconstruction);
    :meth:`flush` scatters the working α/γ back into the
    :class:`LocalBlock`'s full-length arrays at those same events.

    ``up``/``low`` are the election masks of :func:`up_low_masks` over
    the packed α (LIBSVM keeps the same state as ``alpha_status``).
    They are rebuilt at compaction and refreshed per sample by
    :meth:`set_alpha`, the only way the hot path writes α, so they
    always equal ``up_low_masks(alpha, y, C)``; callers that narrow the
    candidates (a pending shrink) combine them into new arrays.

    Entries keep the block's local-index order, so elementwise scans
    over the packed arrays visit samples in local-index order —
    argmin/argmax ties break toward the smallest index, and the
    iteration sequence does not depend on the process count.
    ``epoch`` increments on every rebuild; callers use it to invalidate
    anything derived from the active rows (e.g. cached kernel columns).
    """

    def __init__(self, blk: LocalBlock, box) -> None:
        self._blk = blk
        self._box = np.broadcast_to(
            np.asarray(box, dtype=np.float64), (blk.n_local,)
        )
        self.epoch = 0
        self.rebuild()

    def rebuild(self) -> None:
        """Recompact from the block's current active mask."""
        blk = self._blk
        lidx = np.flatnonzero(blk.active)
        self.lidx = lidx
        self.gidx = lidx + blk.global_start
        self.alpha = blk.alpha[lidx].copy()
        self.y = blk.y[lidx].copy()
        self.gamma = blk.gamma[lidx].copy()
        self.C = self._box[lidx].copy()
        self.norms = blk.norms[lidx].copy()
        self.Xa = blk.X.take_rows(lidx)
        self.up, self.low = up_low_masks(self.alpha, self.y, self.C)
        self._position = dict(zip(self.gidx.tolist(), range(lidx.size)))
        # y and C as Python floats, for set_alpha's per-sample mask test
        self._y_list = self.y.tolist()
        self._C_list = self.C.tolist()
        self.epoch += 1

    def set_alpha(self, k: int, value: float) -> None:
        """Write α at packed position ``k`` and refresh its mask bits."""
        self.alpha[k] = value
        self.up[k], self.low[k] = up_low_at(
            value, self._y_list[k], self._C_list[k]
        )

    def flush(self) -> None:
        """Scatter the working α/γ back into the block's full arrays."""
        blk = self._blk
        blk.alpha[self.lidx] = self.alpha
        blk.gamma[self.lidx] = self.gamma

    @property
    def n_active(self) -> int:
        return int(self.lidx.size)

    def position_of_global(self, g: int) -> int:
        """Packed position of global sample ``g`` (must be active here)."""
        k = self._position.get(g)
        if k is None:
            raise IndexError(f"global index {g} is not active on this rank")
        return k


def make_blocks(
    X: CSRMatrix,
    y: np.ndarray,
    part: BlockPartition,
    gamma0: Optional[np.ndarray] = None,
) -> list:
    """Split a full problem into per-rank :class:`LocalBlock` shards."""
    y = np.asarray(y, dtype=np.float64)
    blocks = []
    for rank in range(part.p):
        lo, hi = part.bounds(rank)
        blocks.append(
            LocalBlock(
                X.row_slice(lo, hi),
                y[lo:hi],
                lo,
                gamma0=None if gamma0 is None else gamma0[lo:hi],
            )
        )
    return blocks
