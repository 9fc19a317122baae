"""Distributed gradient reconstruction — Algorithm 3.

When samples are shrunk their gradients go stale (Eq. 2 skips them).
Before the solver can certify optimality, every stale γ_i must be
recomputed from scratch against *all* samples with α_j > 0 — including
bound SVs that are themselves currently shrunk.

Each rank packs its α>0 samples (CSR block + coefficients α_j·y_j) and
the blocks circulate around a ring of p steps (``Isend``/``Irecv``/
``Waitall`` in the paper).  Sends are eager here, so each step is a
``send`` to the right neighbour followed by a ``recv`` from the left
one.  Each block travels as a typed frame, whose CRC32 protects it in
transit.  Every rank buffers the p visiting blocks and folds them into
the gradients of its own shrunk samples in *global rank order*, so the
floating-point summation order — and therefore the reconstructed γ,
bitwise — is independent of the process count.  The buffer costs
Θ(|{α>0}|) memory per rank (the support set), where the paper's ring
streams one visiting block at a time.  After the ring,
γ_i = Σ_j α_j y_j Φ(x_j, x_i) − y_i exactly, all samples are
re-activated, and fresh β_up/β_low are computed by the caller.

Communication moves Θ(|{α>0}|) samples per rank per step — the paper's
Θ(|X − Ȧ| · G) bandwidth bound — instead of an Allgather needing a
full-dataset receive buffer (§IV-B2).

The fold itself runs through the blocked kernel-evaluation engine: each
visiting block is consumed as a handful of CSR×CSRᵀ kernel slabs
(``Kernel.block``) and weighted row sums instead of one Python iteration
per contributing sample, bit-for-bit equivalent to the per-sample
formulation (see ``_apply_chunk``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..kernels import Kernel
from ..mpi.errors import CorruptMessageError, MessageLostError, RingRecoveryError
from ..sparse.csr import CSRMatrix
from .state import LocalBlock
from .trace import RankTrace, ReconEvent

#: base tag for ring traffic (fault specs address the first ring step
#: as ``tag=3``).  Step ``s`` of the ring uses ``TAG_RING + s``: sends are
#: eager and a neighbor may run several steps ahead, so per-step tags
#: keep matching unambiguous when a chunk is delayed, dropped or being
#: re-requested — the receiver can never confuse the step-``s``
#: retransmission with the step-``s+1`` chunk already queued behind it.
TAG_RING = 3

#: visiting-block rows folded per blocked step — bounds the dense kernel
#: slab at FOLD_TILE_ROWS × |local shrunk set| doubles
FOLD_TILE_ROWS = 512


def _pack_contrib(blk: LocalBlock) -> Tuple[bytes, np.ndarray, np.ndarray]:
    """This rank's ring payload: CSR bytes, coefs α·y, row norms.

    The CSR blob and the norm vector depend only on the support set
    {α > 0}, so they are cached on the block and reused while the set
    is unchanged; the coefficients are recomputed every time (α values
    move between reconstructions even when the set does not).
    """
    contrib = np.flatnonzero(blk.alpha > 0)
    cached = blk._descriptor_cache
    if cached is not None and np.array_equal(cached[0], contrib):
        blob, norms = cached[1], cached[2]
    else:
        blob = blk.X.take_rows(contrib).to_bytes()
        norms = blk.norms[contrib]
        blk._descriptor_cache = (contrib.copy(), blob, norms)
    return blob, blk.alpha[contrib] * blk.y[contrib], norms


def _verify_chunk(chunk, source: int) -> None:
    """Structure-check one visiting chunk (the frame decoder has already
    verified its CRC32): anything but a 3-tuple is malformed."""
    if not (isinstance(chunk, tuple) and len(chunk) == 3):
        raise CorruptMessageError(
            f"ring chunk from rank {source} has malformed structure "
            f"({type(chunk).__name__})"
        )


def _ring_recv(comm, source: int, tag: int, step: int):
    """Receive and check one visiting chunk.

    ``comm.recv`` already re-requests a chunk whose frame fails its CRC
    from the fault-engine ledger (the simulator's stand-in for a
    retransmit protocol), a bounded number of times.  A chunk that is
    still corrupt, is malformed, or that the message layer reports as
    lost raises a structured :class:`~repro.mpi.errors.RingRecoveryError`
    naming the rank, tag and ring step.
    """
    try:
        chunk = comm.recv(source, tag)
        _verify_chunk(chunk, source)
    except (CorruptMessageError, MessageLostError) as exc:
        raise RingRecoveryError(comm.rank, tag, step, exc) from exc
    return chunk


def _apply_chunk(
    kernel: Kernel,
    X_shrunk: CSRMatrix,
    norms_shrunk: np.ndarray,
    accum: np.ndarray,
    chunk: Tuple[bytes, np.ndarray, np.ndarray],
) -> int:
    """Fold one visiting block into the partial gradients; returns #evals.

    One kernel slab + one weighted sum per tile of
    :data:`FOLD_TILE_ROWS` visiting rows.  Bit-for-bit equivalent to the
    paper's per-sample fold (``accum += coefs[j] * kcol_j`` with one
    ``Kernel.row_against_block`` column per visiting row ``j``, in
    order): each slab column is bitwise identical to the corresponding
    ``row_against_block`` call (see :meth:`Kernel.block`), and
    ``np.add.accumulate`` with the running partial as carry-in performs
    exactly the left-to-right additions of the per-sample loop —
    floating-point summation order, and therefore the deterministic
    engine's iteration sequence, is preserved.
    """
    blob, coefs, norms = chunk
    if accum.size == 0 or coefs.size == 0:
        return 0
    Xc = CSRMatrix.from_bytes(blob)
    evals = 0
    for lo in range(0, Xc.shape[0], FOLD_TILE_ROWS):
        hi = min(lo + FOLD_TILE_ROWS, Xc.shape[0])
        slab = kernel.block(
            X_shrunk, norms_shrunk, Xc.row_slice(lo, hi), norms[lo:hi]
        )
        slab *= coefs[lo:hi]
        carried = np.concatenate([accum[:, None], slab], axis=1)
        np.add.accumulate(carried, axis=1, out=carried)
        accum[:] = carried[:, -1]
        evals += slab.size
    return evals


def gradient_reconstruction(
    comm,
    blk: LocalBlock,
    kernel: Kernel,
    iteration: int,
    trace: RankTrace,
) -> None:
    """Run Algorithm 3 on this rank; on return every sample is active
    and every gradient is exact (bitwise independent of the process
    count: the visiting blocks fold in global rank order)."""
    p = comm.size
    shrunk_idx = np.flatnonzero(~blk.active)
    X_shr = blk.X.take_rows(shrunk_idx)
    norms_shr = blk.norms[shrunk_idx]
    accum = np.zeros(shrunk_idx.size)

    chunk = _pack_contrib(blk)
    n_contrib_local = int(chunk[1].size)
    b0 = comm.clock.stats.bytes_sent

    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    buffered = [None] * p
    for step in range(p):
        buffered[(comm.rank - step) % p] = chunk
        if step < p - 1:
            tag = TAG_RING + step
            comm.send(chunk, right, tag)
            chunk = _ring_recv(comm, left, tag, step)
    # exact wire bytes this rank pushed into the ring (clock delta: the
    # ring is the only sender between the two snapshots)
    bytes_sent = comm.clock.stats.bytes_sent - b0
    evals = 0
    for visiting in buffered:  # global rank order
        evals += _apply_chunk(kernel, X_shr, norms_shr, accum, visiting)

    # γ_i = Σ_j α_j y_j Φ(x_j, x_i) + γ0_i  (Alg. 3 line 6; γ0 = −y for
    # classification, the ε-SVR linear term otherwise)
    if shrunk_idx.size:
        blk.gamma[shrunk_idx] = accum + blk.gamma0[shrunk_idx]
        blk.active[shrunk_idx] = True

    avg_nnz = blk.X.avg_row_nnz or 1.0
    comm.charge_kernel_evals(evals, avg_nnz)
    trace.kernel_evals += evals
    trace.recon_events.append(
        ReconEvent(
            iteration=iteration,
            n_shrunk_local=int(shrunk_idx.size),
            n_contrib_local=n_contrib_local,
            bytes_sent=bytes_sent,
            kernel_evals=evals,
        )
    )
