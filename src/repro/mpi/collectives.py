"""Collective algorithms, built on the point-to-point layer.

Implementing collectives over p2p (rather than as magic synchronization)
means virtual time *emerges* from the algorithmic structure: a binomial
bcast costs ~log2(p) message latencies on the critical path, a ring
allgather costs (p-1) bandwidth terms, exactly as the paper's complexity
analysis assumes (O(l + m*G) * log p for Bcast, Theta(l * log p) for the
scalar Allreduce, Theta(|X| * G) for the ring exchange).

Every rank of a communicator must enter each collective in the same
order; a per-communicator sequence number keyed into a reserved tag space
keeps concurrent collectives from cross-matching.

Floating-point determinism: reduction operands are always combined in a
fixed rank order, so results are bitwise identical run to run.

Fault behaviour: collective steps ride the same p2p paths as user
messages, so they inherit the fault layer transparently — a dropped
collective message is re-requested by the receiving mailbox as soon as
the engine withholds it, and an unrecoverable loss surfaces as a structured
:class:`~repro.mpi.errors.MessageLostError` on the blocked rank (the
job watchdog then reports every other rank's blocked state via
:class:`~repro.mpi.errors.DeadlockError` diagnostics if they hang).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from .reduceops import ReduceOp


def _combiner(op: ReduceOp, arrays: bool):
    """``combine(lo, hi)``: the op's array or object path; callers pass
    the lower-rank operand first (deterministic)."""
    return op.combine_arrays if arrays else op.combine


def barrier_dissemination(comm) -> None:
    """Dissemination barrier: ceil(log2(p)) rounds."""
    p = comm.size
    if p == 1:
        comm._next_coll_tag()
        return
    tag = comm._next_coll_tag()
    rank = comm.rank
    dist = 1
    while dist < p:
        dest = (rank + dist) % p
        src = (rank - dist) % p
        comm._coll_send(None, dest, tag)
        comm._coll_recv(src, tag)
        dist <<= 1


def bcast_binomial(comm, obj: Any, root: int, typed: bool = False) -> Any:
    """Binomial-tree broadcast; returns the object on every rank."""
    p = comm.size
    tag = comm._next_coll_tag()
    if p == 1:
        return obj
    rank = comm.rank
    vrank = (rank - root) % p

    # receive phase: find the bit where this rank hangs off the tree
    mask = 1
    while mask < p:
        if vrank & mask:
            src = ((vrank ^ mask) + root) % p
            obj = comm._coll_recv(src, tag)
            break
        mask <<= 1
    # send phase: forward to children below the receive bit
    mask >>= 1
    while mask > 0:
        child = vrank | mask
        if child != vrank and child < p:
            comm._coll_send(obj, (child + root) % p, tag, typed=typed)
        mask >>= 1
    return obj


def reduce_binomial(
    comm,
    obj: Any,
    op: ReduceOp,
    root: int,
    arrays: bool = False,
    typed: bool = False,
) -> Optional[Any]:
    """Binomial-tree reduce; only ``root`` gets the result (others: None)."""
    p = comm.size
    tag = comm._next_coll_tag()
    if p == 1:
        return obj
    rank = comm.rank
    vrank = (rank - root) % p
    combine = _combiner(op, arrays)
    val = obj
    mask = 1
    while mask < p:
        if vrank & mask:
            dest = ((vrank ^ mask) + root) % p
            comm._coll_send(val, dest, tag, typed=typed)
            break
        partner = vrank | mask
        if partner < p:
            other = comm._coll_recv((partner + root) % p, tag)
            # partner has the higher virtual rank: combine (self, other)
            val = combine(val, other)
        mask <<= 1
    return val if rank == root else None


def allreduce_recursive_doubling(
    comm, obj: Any, op: ReduceOp, arrays: bool = False, typed: bool = False
) -> Any:
    """Recursive-doubling allreduce with the standard non-power-of-2 fold.

    With ``typed=True`` the operands travel as raw numpy buffers (the
    communicator's typed envelope path) instead of pickled objects —
    same reduction tree, same low-rank-first combine order, smaller and
    cheaper messages.  The caller must pass numpy arrays and an op whose
    array path accepts them.
    """
    p = comm.size
    tag = comm._next_coll_tag()
    if p == 1:
        return obj
    rank = comm.rank
    combine = _combiner(op, arrays)
    val = obj

    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2

    # pre-fold: the first 2*rem ranks pair up, evens donate to odds
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm._coll_send(val, rank + 1, tag, typed=typed)
            newrank = -1
        else:
            other = comm._coll_recv(rank - 1, tag)
            val = combine(other, val)  # lower rank first
            newrank = rank // 2
    else:
        newrank = rank - rem

    if newrank >= 0:
        mask = 1
        while mask < pof2:
            partner = newrank ^ mask
            # the real rank of folded rank `partner`
            peer = partner * 2 + 1 if partner < rem else partner + rem
            comm._coll_send(val, peer, tag, typed=typed)
            other = comm._coll_recv(peer, tag)
            if newrank < partner:
                val = combine(val, other)
            else:
                val = combine(other, val)
            mask <<= 1

    # post-fold: odds return the result to their even partner
    if rank < 2 * rem:
        if rank % 2 == 1:
            comm._coll_send(val, rank - 1, tag, typed=typed)
        else:
            val = comm._coll_recv(rank + 1, tag)
    return val


def gather_flat(comm, obj: Any, root: int) -> Optional[List[Any]]:
    """Linear gather: fine for small payloads and modest p."""
    p = comm.size
    tag = comm._next_coll_tag()
    rank = comm.rank
    if rank == root:
        out: List[Any] = [None] * p
        out[root] = obj
        for src in range(p):
            if src != root:
                out[src] = comm._coll_recv(src, tag)
        return out
    comm._coll_send(obj, root, tag)
    return None


def allgather_ring(comm, obj: Any) -> List[Any]:
    """Ring allgather: p-1 steps, each forwarding the previous block."""
    p = comm.size
    tag = comm._next_coll_tag()
    rank = comm.rank
    out: List[Any] = [None] * p
    out[rank] = obj
    cur = obj
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(1, p):
        comm._coll_send(cur, right, tag)
        cur = comm._coll_recv(left, tag)
        out[(rank - step) % p] = cur
    return out


def scatter_flat(comm, objs: Optional[Sequence[Any]], root: int) -> Any:
    p = comm.size
    tag = comm._next_coll_tag()
    rank = comm.rank
    if rank == root:
        if objs is None or len(objs) != p:
            from .errors import CommError

            raise CommError(
                f"scatter at root requires a sequence of exactly {p} items"
            )
        for dest in range(p):
            if dest != root:
                comm._coll_send(objs[dest], dest, tag)
        return objs[root]
    return comm._coll_recv(root, tag)


def scan_linear(comm, obj: Any, op: ReduceOp, arrays: bool = False) -> Any:
    """Inclusive prefix reduction: rank r gets op(x_0, ..., x_r).

    Linear chain (rank r−1 -> rank r): log-depth scans exist, but the
    chain keeps the deterministic low-to-high combine order.
    """
    p = comm.size
    tag = comm._next_coll_tag()
    rank = comm.rank
    val = obj
    if rank > 0:
        prefix = comm._coll_recv(rank - 1, tag)
        val = _combiner(op, arrays)(prefix, val)
    if rank < p - 1:
        comm._coll_send(val, rank + 1, tag)
    return val


def exscan_linear(comm, obj: Any, op: ReduceOp, arrays: bool = False) -> Any:
    """Exclusive prefix reduction: rank r gets op(x_0, ..., x_{r-1});
    rank 0 gets ``None`` (mirroring MPI_Exscan's undefined rank-0)."""
    p = comm.size
    tag = comm._next_coll_tag()
    rank = comm.rank
    prefix = None
    if rank > 0:
        prefix = comm._coll_recv(rank - 1, tag)
    if rank < p - 1:
        inclusive = (
            obj if prefix is None else _combiner(op, arrays)(prefix, obj)
        )
        comm._coll_send(inclusive, rank + 1, tag)
    return prefix


def reduce_scatter_block(
    comm, objs: Sequence[Any], op: ReduceOp, arrays: bool = False
) -> Any:
    """Reduce element i over all ranks, deliver result i to rank i.

    Implemented as pairwise exchange + local combine (each rank sends
    its contribution for slot j directly to rank j), the standard
    latency-optimal layout for short vectors.
    """
    p = comm.size
    tag = comm._next_coll_tag()
    rank = comm.rank
    if len(objs) != p:
        from .errors import CommError

        raise CommError(
            f"reduce_scatter requires exactly {p} items, got {len(objs)}"
        )
    acc = objs[rank]
    # gather contributions for my slot while sending mine out, in a
    # fixed source order for float determinism
    incoming: List[Any] = [None] * p
    incoming[rank] = acc
    for step in range(1, p):
        dest = (rank + step) % p
        src = (rank - step) % p
        comm._coll_send(objs[dest], dest, tag)
        incoming[src] = comm._coll_recv(src, tag)
    combine = _combiner(op, arrays)
    out = incoming[0]
    for s in range(1, p):
        out = combine(out, incoming[s])
    return out


def alltoall_pairwise(comm, objs: Sequence[Any]) -> List[Any]:
    p = comm.size
    tag = comm._next_coll_tag()
    rank = comm.rank
    if len(objs) != p:
        from .errors import CommError

        raise CommError(f"alltoall requires exactly {p} items, got {len(objs)}")
    out: List[Any] = [None] * p
    out[rank] = objs[rank]
    for step in range(1, p):
        dest = (rank + step) % p
        src = (rank - step) % p
        comm._coll_send(objs[dest], dest, tag)
        out[src] = comm._coll_recv(src, tag)
    return out
