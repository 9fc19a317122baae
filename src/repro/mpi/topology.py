"""Topology-aware collective suites and the communicator registry.

A *collective suite* is the pluggable object behind a
:class:`~repro.mpi.communicator.Comm`'s collective entry points.  The
registry maps a name to a suite, mirroring chainermn's
``create_communicator(name)`` dispatch:

- ``"flat"`` (default): the textbook single-level algorithms of
  :mod:`repro.mpi.collectives` — binomial trees, recursive doubling
  and rings over the whole communicator, oblivious to node placement.
- ``"hierarchical"``: two-level variants exploiting the machine's node
  geometry (:attr:`MachineSpec.node_size` block placement).  Allreduce
  runs intra-node reduce → inter-node recursive doubling over one
  leader per node → intra-node broadcast; bcast and allgather and the
  barrier follow the same leader pattern.  The remaining collectives
  (gather, scatter, scan, exscan, reduce-scatter, alltoall) delegate
  to the flat algorithms.

Selection: ``RunConfig.comm`` / ``--comm``; ``None`` means ``"flat"``.

Determinism: the hierarchical algorithms combine reduction operands in
exactly the binomial/recursive-doubling order of the flat suite.  For
the power-of-two contiguous layouts the solver's bitwise-identity tests
pin, the two suites produce *bitwise identical* reductions (the combine
tree is the same); on a machine without a described hierarchy — or a
communicator that fits on one node — the hierarchical suite delegates
to the flat algorithms outright, so results are trivially identical.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from . import collectives as _coll
from .reduceops import MIN, ReduceOp


def node_layout(comm) -> Tuple[List[List[int]], List[int], List[int]]:
    """Node structure of a communicator, in local-rank terms.

    Returns ``(members_by_node, leaders, node_idx_by_rank)`` where
    ``members_by_node[n]`` lists the local ranks placed on the n-th
    occupied node (ascending), ``leaders[n]`` is that node's lowest
    local rank, and ``node_idx_by_rank[r]`` maps a local rank to its
    node's index.  Placement follows the machine's block layout over
    *global* ranks, so a carved sub-communicator keeps its physical
    node structure.  Cached on the communicator (the group is
    immutable).
    """
    cached = getattr(comm, "_node_layout_cache", None)
    if cached is not None:
        return cached
    m = comm.machine
    by_node: dict = {}
    for lr in range(comm.size):
        by_node.setdefault(m.node_of(comm._group[lr]), []).append(lr)
    members_by_node = [by_node[nid] for nid in sorted(by_node)]
    leaders = [mem[0] for mem in members_by_node]
    node_idx_by_rank = [0] * comm.size
    for ni, mem in enumerate(members_by_node):
        for lr in mem:
            node_idx_by_rank[lr] = ni
    layout = (members_by_node, leaders, node_idx_by_rank)
    comm._node_layout_cache = layout
    return layout


class _SubView:
    """A rank-remapped window onto a communicator.

    Presents an ordered subset of a communicator's ranks as a
    self-contained communicator for the flat algorithms: virtual rank
    i is ``members[i]``, and every collective phase runs under one
    pre-allocated tag (phases are sequential per rank, and each
    directed edge carries at most one message per phase, so a single
    tag cannot cross-match).
    """

    __slots__ = ("_comm", "_members", "_tag", "rank", "size")

    def __init__(self, comm, members: Sequence[int], tag: int):
        self._comm = comm
        self._members = members
        self._tag = tag
        self.rank = members.index(comm.rank)
        self.size = len(members)

    def _next_coll_tag(self) -> int:
        return self._tag

    def _coll_send(self, obj: Any, dest: int, tag: int, typed: bool = False) -> None:
        self._comm._coll_send(obj, self._members[dest], tag, typed=typed)

    def _coll_recv(self, source: int, tag: int) -> Any:
        return self._comm._coll_recv(self._members[source], tag)


class FlatCollectives:
    """The single-level textbook algorithms (historical default).

    Each entry point is the algorithm itself (``suite.allreduce(comm,
    ...)`` calls :func:`~repro.mpi.collectives.allreduce_recursive_doubling`
    with no frame in between).
    """

    name = "flat"

    barrier = staticmethod(_coll.barrier_dissemination)
    bcast = staticmethod(_coll.bcast_binomial)
    reduce = staticmethod(_coll.reduce_binomial)
    allreduce = staticmethod(_coll.allreduce_recursive_doubling)
    allgather = staticmethod(_coll.allgather_ring)
    gather = staticmethod(_coll.gather_flat)
    scatter = staticmethod(_coll.scatter_flat)
    alltoall = staticmethod(_coll.alltoall_pairwise)
    scan = staticmethod(_coll.scan_linear)
    exscan = staticmethod(_coll.exscan_linear)
    reduce_scatter = staticmethod(_coll.reduce_scatter_block)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class HierarchicalCollectives(FlatCollectives):
    """Two-level collectives: intra-node phase, leader phase, fan-out.

    Every hierarchical collective allocates its phase tags on *all*
    ranks (three ``_next_coll_tag`` calls), keeping the communicator's
    tag sequence aligned across ranks regardless of each rank's role.
    """

    name = "hierarchical"

    @staticmethod
    def _two_level(comm):
        """``(members_of_my_node, leaders, node_idx)`` when a two-level
        schedule applies, else ``None`` (delegate to flat)."""
        members, leaders, node_idx = node_layout(comm)
        if len(leaders) <= 1 or len(leaders) == comm.size:
            return None
        return members, leaders, node_idx

    def barrier(self, comm) -> None:
        lay = self._two_level(comm)
        if lay is None:
            _coll.barrier_dissemination(comm)
            return
        members, leaders, node_idx = lay
        t_up = comm._next_coll_tag()
        t_x = comm._next_coll_tag()
        t_dn = comm._next_coll_tag()
        mine = members[node_idx[comm.rank]]
        if len(mine) > 1:
            _coll.reduce_binomial(_SubView(comm, mine, t_up), 0, MIN, 0)
        if comm.rank == mine[0]:
            _coll.barrier_dissemination(_SubView(comm, leaders, t_x))
        if len(mine) > 1:
            _coll.bcast_binomial(_SubView(comm, mine, t_dn), None, 0)

    def bcast(self, comm, obj: Any, root: int) -> Any:
        lay = self._two_level(comm)
        if lay is None:
            return _coll.bcast_binomial(comm, obj, root)
        members, leaders, node_idx = lay
        t_hop = comm._next_coll_tag()
        t_x = comm._next_coll_tag()
        t_dn = comm._next_coll_tag()
        mine = members[node_idx[comm.rank]]
        root_leader = members[node_idx[root]][0]
        if root != root_leader:
            # the root is not its node's leader: one intra-node hop
            if comm.rank == root:
                comm._coll_send(obj, root_leader, t_hop)
            elif comm.rank == root_leader:
                obj = comm._coll_recv(root, t_hop)
        if comm.rank == mine[0]:
            obj = _coll.bcast_binomial(
                _SubView(comm, leaders, t_x), obj, leaders.index(root_leader)
            )
        if len(mine) > 1:
            obj = _coll.bcast_binomial(_SubView(comm, mine, t_dn), obj, 0)
        return obj

    def allreduce(
        self,
        comm,
        obj: Any,
        op: ReduceOp,
        arrays: bool = False,
        typed: bool = False,
    ) -> Any:
        lay = self._two_level(comm)
        if lay is None:
            return _coll.allreduce_recursive_doubling(comm, obj, op, arrays, typed)
        members, leaders, node_idx = lay
        t_up = comm._next_coll_tag()
        t_x = comm._next_coll_tag()
        t_dn = comm._next_coll_tag()
        mine = members[node_idx[comm.rank]]
        val = obj
        if len(mine) > 1:
            # intra-node binomial reduce to the node leader; combine
            # order matches the first log2(k) recursive-doubling rounds
            val = _coll.reduce_binomial(
                _SubView(comm, mine, t_up), val, op, 0, arrays, typed=typed
            )
        if comm.rank == mine[0]:
            val = _coll.allreduce_recursive_doubling(
                _SubView(comm, leaders, t_x), val, op, arrays, typed
            )
        if len(mine) > 1:
            val = _coll.bcast_binomial(_SubView(comm, mine, t_dn), val, 0, typed=typed)
        return val

    def allgather(self, comm, obj: Any) -> List[Any]:
        lay = self._two_level(comm)
        if lay is None:
            return _coll.allgather_ring(comm, obj)
        members, leaders, node_idx = lay
        t_up = comm._next_coll_tag()
        t_x = comm._next_coll_tag()
        t_dn = comm._next_coll_tag()
        mine = members[node_idx[comm.rank]]
        part: Optional[List[Any]] = [obj]
        if len(mine) > 1:
            part = _coll.gather_flat(_SubView(comm, mine, t_up), obj, 0)
        out: Optional[List[Any]] = None
        if comm.rank == mine[0]:
            per_node = _coll.allgather_ring(_SubView(comm, leaders, t_x), part)
            out = [None] * comm.size
            for ni, items in enumerate(per_node):
                for pos, lr in enumerate(members[ni]):
                    out[lr] = items[pos]
        if len(mine) > 1:
            out = _coll.bcast_binomial(_SubView(comm, mine, t_dn), out, 0)
        return out


def carve(comm, members: Sequence[int]):
    """A full sub-communicator over ``members``, carved without traffic.

    Promotes the :class:`_SubView` rank-remapping idiom — virtual rank
    ``i`` is ``members[i]`` — from a per-collective window to a real
    :class:`~repro.mpi.communicator.Comm` with its own context, so the
    whole solver stack (point-to-point, collectives under either suite,
    fault injection, tag sequencing) runs unchanged inside the carved
    group.  It sends nothing: every member is required to compute the
    *same* ``members`` list redundantly (the SPMD idiom the DC outer
    loop uses), and the runtime's deterministic context allocation
    keyed on ``(parent ctx, group)`` guarantees all members agree on
    the new context id.  The id differs from the parent's, so a message
    on one never matches a receive on the other.

    Returns ``None`` on ranks outside ``members``.
    """
    members = tuple(members)
    if len(members) == 0:
        raise ValueError("cannot carve an empty communicator")
    if len(set(members)) != len(members):
        raise ValueError(f"duplicate ranks in carve group {members}")
    for r in members:
        if not 0 <= r < comm.size:
            raise ValueError(
                f"rank {r} out of range for communicator of size {comm.size}"
            )
    if comm.rank not in members:
        return None
    from .communicator import Comm  # local import: topology <- communicator

    group = tuple(comm._global(r) for r in members)
    ctx = comm._runtime.allocate_context(("carve", comm._context, group))
    return Comm(comm._runtime, group, members.index(comm.rank), ctx)


#: the ``create_communicator(name)`` registry
COMMUNICATORS = {
    "flat": FlatCollectives,
    "hierarchical": HierarchicalCollectives,
}


def resolve_comm(name: Optional[str] = None) -> str:
    """The collective suite name: ``None`` means "flat"; unknown names
    raise."""
    if name is None:
        name = "flat"
    if name not in COMMUNICATORS:
        raise ValueError(
            f"unknown communicator {name!r}; expected one of "
            f"{sorted(COMMUNICATORS)}"
        )
    return name


def create_communicator(name: Optional[str] = None):
    """Instantiate a collective suite by registry name (``None`` means
    the flat default)."""
    return COMMUNICATORS[resolve_comm(name)]()
