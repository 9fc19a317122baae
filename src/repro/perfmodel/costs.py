"""Analytic costs of the communication patterns the solvers use.

These mirror the algorithms in :mod:`repro.mpi.collectives` (binomial
bcast, recursive-doubling allreduce, ring exchange, dissemination
barrier), and therefore the complexity terms the paper derives in
§III-IV: O((l + m·G)·log p) for the working-set broadcast,
Θ(l·log p) for the scalar allreduces, Θ(|X − Ȧ|·G) for the
reconstruction ring.
"""

from __future__ import annotations

import math

from .machine import MachineSpec


def log2ceil(p: int) -> int:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return max(0, math.ceil(math.log2(p)))


def p2p_time(m: MachineSpec, nbytes: float) -> float:
    return m.latency + nbytes * m.byte_time


def bcast_time(m: MachineSpec, nbytes: float, p: int) -> float:
    """Binomial tree: log2(p) hops on the critical path."""
    return log2ceil(p) * p2p_time(m, nbytes)


def allreduce_time(m: MachineSpec, nbytes: float, p: int) -> float:
    """Recursive doubling: log2(p) exchange rounds (plus the fold round
    for non-powers of two, folded into the ceil)."""
    return log2ceil(p) * p2p_time(m, nbytes)


def barrier_time(m: MachineSpec, p: int) -> float:
    return log2ceil(p) * m.latency


def ring_exchange_time(m: MachineSpec, chunk_bytes: float, p: int) -> float:
    """p−1 steps each moving one chunk between neighbours."""
    return max(0, p - 1) * p2p_time(m, chunk_bytes)


def allgather_time(m: MachineSpec, total_bytes: float, p: int) -> float:
    """Bruck/dissemination allgather: log2(p) latency steps, every rank
    ends with the full ``total_bytes`` payload.  Preferred over the ring
    for small payloads, where the ring's p-1 latency hops dominate."""
    return log2ceil(p) * m.latency + total_bytes * m.byte_time


def node_geometry(m: MachineSpec, p: int) -> "tuple[int, int]":
    """``(k, nn)``: ranks per node and node count for ``p`` block-placed
    ranks on ``m`` (the last node may be partially filled)."""
    k = min(p, m.node_size)
    nn = math.ceil(p / k)
    return k, nn


def intra_p2p_time(m: MachineSpec, nbytes: float) -> float:
    """One intra-node message (falls back to inter prices when the
    machine describes no separate intra-node fabric)."""
    return m.p2p_time(int(nbytes), intra=True)


def hier_bcast_time(m: MachineSpec, nbytes: float, p: int) -> float:
    """Two-level broadcast: worst-case intra hop to the root's node
    leader, binomial over the ``nn`` leaders, binomial inside each node.

    Mirrors :class:`repro.mpi.topology.HierarchicalCollectives.bcast`,
    including its delegation to the flat tree when only one node (or one
    rank per node) is involved.
    """
    k, nn = node_geometry(m, p)
    if nn <= 1 or k <= 1:
        return bcast_time(m, nbytes, p)
    return (
        intra_p2p_time(m, nbytes)
        + log2ceil(nn) * p2p_time(m, nbytes)
        + log2ceil(k) * intra_p2p_time(m, nbytes)
    )


def hier_allreduce_time(m: MachineSpec, nbytes: float, p: int) -> float:
    """Two-level allreduce: intra-node binomial reduce, recursive
    doubling over the leaders, intra-node binomial broadcast."""
    k, nn = node_geometry(m, p)
    if nn <= 1 or k <= 1:
        return allreduce_time(m, nbytes, p)
    return (
        2 * log2ceil(k) * intra_p2p_time(m, nbytes)
        + log2ceil(nn) * p2p_time(m, nbytes)
    )


def allreduce_messages(p: int) -> int:
    """Total messages of one recursive-doubling allreduce at ``p``."""
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    return pof2 * log2ceil(pof2) + 2 * rem


def hier_allreduce_messages(m: MachineSpec, p: int) -> int:
    """Messages of the two-level allreduce: an up tree and a down tree
    inside every node (``p − nn`` each) plus recursive doubling over
    the ``nn`` leaders."""
    k, nn = node_geometry(m, p)
    if nn <= 1 or k <= 1:
        return allreduce_messages(p)
    return 2 * (p - nn) + allreduce_messages(nn)


def sample_bytes(avg_nnz: float) -> float:
    """Wire size of one CSR sample row: int64 index + float64 value per
    nonzero, plus norm/label/alpha scalars and framing."""
    return 16.0 * avg_nnz + 48.0


#: wire size of the fused violator election — a typed float64 buffer
#: [β_up, i_up, β_low, i_low] reduced with the MINLOC_MAXLOC op (one
#: Allreduce instead of a pickled MINLOC + MAXLOC pair)
ELECTION_BYTES = 4 * 8.0

#: the same buffer with the shrink survivor-count SUM slot appended —
#: the δ Allreduce of a shrink event piggybacks on the election that
#: follows it instead of travelling as its own message
ELECTION_SHRINK_BYTES = 5 * 8.0


#: wire size of the second-order phase-B combine — a typed float64
#: buffer [gain, i_low, γ_low] reduced with the MAXLOC_PAYLOAD op
WSS2_PHASE_BYTES = 3 * 8.0


def election_time(
    m: MachineSpec, p: int, *, with_shrink: bool = False, comm: str = "flat"
) -> float:
    """One fused violator-election Allreduce.

    ``comm`` selects the modeled collective suite: the flat recursive
    doubling or the topology-aware two-level variant (the fused
    MINLOC_MAXLOC buffer rides either unchanged).
    """
    nbytes = ELECTION_SHRINK_BYTES if with_shrink else ELECTION_BYTES
    if comm == "hierarchical":
        return hier_allreduce_time(m, nbytes, p)
    return allreduce_time(m, nbytes, p)


def wss2_election_time(
    m: MachineSpec, p: int, *, with_shrink: bool = False, comm: str = "flat"
) -> float:
    """One full two-phase second-order election.

    Phase A is the ordinary fused election (optionally carrying a
    shrink δ tail); phase B adds one typed MAXLOC_PAYLOAD Allreduce of
    the (gain, index, γ) triple.  The phase-B up-sample broadcast is
    *not* included — it is stash-aware and therefore trace-counted with
    the other pair broadcasts, not a fixed per-election cost.
    """
    t = election_time(m, p, with_shrink=with_shrink, comm=comm)
    if comm == "hierarchical":
        return t + hier_allreduce_time(m, WSS2_PHASE_BYTES, p)
    return t + allreduce_time(m, WSS2_PHASE_BYTES, p)


def wss2_election_messages(m: MachineSpec, p: int, comm: str = "flat") -> int:
    """Messages added by one phase-B combine on top of phase A."""
    if comm == "hierarchical":
        return hier_allreduce_messages(m, p)
    return allreduce_messages(p)


# ----------------------------------------------------------------------
# divide-and-conquer outer loop (repro.core.dcsvm)
# ----------------------------------------------------------------------
#: landmark candidate pool cap of the DC partitioner (kept in sync with
#: repro.core.dcsvm._LANDMARK_POOL)
DC_LANDMARK_POOL = 256


def dc_pool_time(m: MachineSpec, n: int, avg_nnz: float) -> float:
    """One-time landmark-pool setup: the pool x pool kernel block the
    per-round kernel-k-means++ rotation draws its landmarks from."""
    pool = min(n, DC_LANDMARK_POOL)
    return m.time_kernel_evals(float(pool) * pool, avg_nnz)


def dc_scatter_time(m: MachineSpec, n: int, p: int, avg_nnz: float) -> float:
    """One-time replication of the sample rows: DC re-clusters every
    round, so every rank keeps the full row set (the standard DC-SVM
    layout) -- one binomial broadcast of the whole matrix."""
    if p <= 1:
        return 0.0
    return bcast_time(m, n * sample_bytes(avg_nnz), p)


def dc_rotate_time(
    m: MachineSpec, n: int, k: int, p: int, new_cols: int, avg_nnz: float
) -> float:
    """One partition rotation.

    Landmark selection is flops over the cached pool block; the
    ``new_cols`` first-touched landmarks cost one n-row kernel column
    each (evaluated n/p per rank, then allgathered); assignment is the
    capacity-constrained greedy (a few flops per (sample, preference)
    pair, sequential on the root) plus the broadcast of the int8
    assignment vector.
    """
    pool = min(n, DC_LANDMARK_POOL)
    col_evals = math.ceil(n / p) * new_cols
    t = m.time_kernel_evals(float(col_evals), avg_nnz)
    if new_cols:
        t += allgather_time(m, new_cols * 8.0 * n, p)
    t += m.time_flops(8.0 * pool * k)  # k-means++ D2 bookkeeping
    t += m.time_flops(8.0 * n * k)  # preference sort + greedy sweep
    t += bcast_time(m, float(n), p)  # the assignment vector
    return t


def dc_sync_time(
    m: MachineSpec, n: int, p: int, changed: int, new_cols: int,
    avg_nnz: float,
) -> float:
    """One line-searched merge + gradient update.

    The blockwise step d lives on ``changed`` coordinates: allgather
    the (index, delta) pairs, evaluate kernel columns only for the
    ``new_cols`` cache misses (n/p rows per rank), apply the rank-local
    gemv slice Delta-f = K[:, changed] . (d o y), and allreduce the two
    line-search dot products plus the beta_up/beta_low convergence pair.
    """
    if changed <= 0:
        return allreduce_time(m, 4 * 8.0, p)
    t = allgather_time(m, 16.0 * changed, p)
    t += m.time_kernel_evals(float(math.ceil(n / p)) * new_cols, avg_nnz)
    t += m.time_flops(2.0 * math.ceil(n / p) * changed)  # gemv slice
    t += m.time_flops(6.0 * math.ceil(n / p))  # axpy + masks
    t += allreduce_time(m, 2 * 8.0, p)  # line-search dots
    t += allreduce_time(m, 4 * 8.0, p)  # beta_up / beta_low election
    return t


def dc_project_time(m: MachineSpec, n: int) -> float:
    """Feasibility projection of the final dual: a clip plus a handful
    of equality-correction sweeps, each O(n)."""
    return m.time_flops(6.0 * 8.0 * n)


# ----------------------------------------------------------------------
# serving (repro.serve): the simulator charges these constants and the
# projector prices with them, so the two cannot drift apart
# ----------------------------------------------------------------------
#: modeled frontend cost per *dispatch* (flops): request framing, batch
#: assembly, scorer hand-off and response fan-out — the fixed RPC-ish
#: overhead that microbatching amortizes (~300 us at cascade's 4 GF/s)
DISPATCH_OVERHEAD_FLOPS = 1_200_000.0

#: modeled frontend cost per *request* inside a slab (flops): admission
#: bookkeeping, cache probe, per-response serialization (~1.25 us)
REQUEST_OVERHEAD_FLOPS = 5_000.0

#: modeled failure-detection latency (seconds of simulated time between
#: a fleet replica dying mid-slab and the router acting on the kill
#: notification): the health-check / RPC-timeout interval of the fleet
DETECT_SECONDS = 1e-3


def dispatch_time(m: MachineSpec, slab_rows: float) -> float:
    """The frontend's modeled cost of dispatching one slab of
    ``slab_rows`` requests: the serving session charges it to rank 0
    before the slab's broadcast."""
    return m.time_flops(
        DISPATCH_OVERHEAD_FLOPS + REQUEST_OVERHEAD_FLOPS * slab_rows
    )


def fleet_reshard_time(
    m: MachineSpec, n_sv: int, avg_nnz: float, p: int
) -> float:
    """Re-shard a saved model onto a p-rank shard-group.

    The loader rank deserializes the registry blob (a linear pass over
    the support-vector payload), then streams each of the other ``p-1``
    ranks its contiguous SV block plus that block's coefficients
    (chainermn ``scatter_dataset`` idiom: root-sequential sends), and a
    closing barrier puts the group in service.
    """
    per_sv = sample_bytes(avg_nnz) + 8.0  # row payload + its sv_coef
    t = m.time_flops(4.0 * n_sv * max(avg_nnz, 1.0))  # deserialize pass
    if p > 1:
        shard_bytes = math.ceil(n_sv / p) * per_sv
        t += (p - 1) * p2p_time(m, shard_bytes)
        t += barrier_time(m, p)
    return t


def stream_seed_time(
    m: MachineSpec, n_new: int, n_sv: int, avg_nnz: float, p: int
) -> float:
    """Gradient seeding for one appended streaming batch.

    The incremental trainer (:mod:`repro.stream`) extends the carried
    gradient vector with γ_new = K(X_new, SV)·sv_coef − y_new: each of
    the ``p`` ranks evaluates its ``ceil(n_new/p)``-row share of the
    kernel slab against the full support-vector set, applies the
    coefficient gemv, and an allgather of the ``n_new`` seeded doubles
    gives every rank the rows its block partition needs.
    """
    rows = math.ceil(n_new / p)
    t = m.time_kernel_evals(float(rows) * n_sv, avg_nnz)
    t += m.time_flops(2.0 * rows * n_sv)  # sv_coef gemv + the −y axpy
    if p > 1:
        t += allgather_time(m, n_new * 8.0, p)
    return t


def fleet_slab_time(
    m: MachineSpec, slab_rows: int, n_sv: int, avg_nnz: float, p: int
) -> float:
    """One microbatched slab end-to-end on a p-rank shard-group.

    Frontend dispatch overhead, binomial broadcast of the request rows,
    the per-rank weighted kernel sub-slab (``slab_rows × ceil(n_sv/p)``
    evaluations), the rank-ordered gather of the sub-slabs back to the
    root, and the full-width bitwise reduction.  Mirrors the virtual
    time the simulated fleet actually charges per slab.
    """
    shard = math.ceil(n_sv / p)
    t = dispatch_time(m, slab_rows)
    if p > 1:
        t += bcast_time(m, slab_rows * sample_bytes(avg_nnz), p)
    t += m.time_kernel_evals(float(slab_rows) * shard, avg_nnz)
    if p > 1:
        # sub-slab gather: each non-root rank sends slab_rows × shard
        # doubles to the root, root-sequential
        t += (p - 1) * p2p_time(m, slab_rows * shard * 8.0)
    t += m.time_flops(float(slab_rows) * n_sv)  # full-width row reduction
    return t
