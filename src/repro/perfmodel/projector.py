"""Trace-driven performance projection.

The distributed solver's iteration sequence is independent of the
process count (deterministic tie-breaking — see
:mod:`repro.core.parallel`), so one instrumented run yields a
:class:`~repro.core.trace.SolveTrace` from which the execution time at
*any* p follows analytically.  This is how the scaling figures reach the
paper's 4096 processes without 4096 host threads.

Per-iteration model (matching §III-B/§IV and the runtime's own virtual
time):

- owner-rooted pair movement: a binomial broadcast of one sample per
  resident-cache miss (the trace records the exact count), rooted at
  the owning rank — O((l + m·G)·log p);
- one fused typed election Allreduce per iteration — Θ(l·log p); a
  shrink event widens the following election message by one slot
  instead of sending its own δ Allreduce;
- three pair kernel evaluations plus the γ update over the rank's share
  of the active set — (3 + 2·ceil(A_t/p))·λ;
- selection scan — O(A_t/p) flops.

Reconstruction events add ceil(S/p)·V kernel evaluations (S shrunk
samples, V contributing α>0 samples) and the Θ(bytes·G) ring.

The projector can also re-scale a trace to the paper-size problem
(``n_scale``/``iteration_scale``) for paper-scale estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List

import numpy as np

from . import costs
from .machine import MachineSpec

if TYPE_CHECKING:  # avoid a core <-> perfmodel import cycle at runtime
    from ..core.trace import SolveTrace

#: flops per active sample per iteration for selection/bookkeeping
_SELECT_FLOPS = 8.0


@dataclass(frozen=True)
class ProjectedTime:
    """Modeled solve time at one process count."""

    p: int
    total: float
    iter_compute: float
    iter_comm: float
    recon_compute: float
    recon_comm: float

    @property
    def recon_total(self) -> float:
        return self.recon_compute + self.recon_comm

    @property
    def recon_fraction(self) -> float:
        """Fig. 8's metric: share of total time spent reconstructing."""
        return self.recon_total / self.total if self.total > 0 else 0.0

    @property
    def comm_fraction(self) -> float:
        comm = self.iter_comm + self.recon_comm
        return comm / self.total if self.total > 0 else 0.0


def project(
    trace: "SolveTrace",
    machine: MachineSpec,
    p: int,
    *,
    n_scale: float = 1.0,
    iteration_scale: float = 1.0,
    comm: str = "flat",
) -> ProjectedTime:
    """Evaluate the time model at ``p`` processes.

    ``n_scale`` multiplies the per-iteration active-set sizes (projecting
    the same trajectory onto a proportionally larger dataset);
    ``iteration_scale`` stretches the iteration axis (the trajectory is
    resampled, preserving its shape).  ``comm`` selects the collective
    suite (``"flat"`` / ``"hierarchical"``): the hierarchical variant
    prices broadcasts and allreduces with the machine's two-level
    (intra/inter) parameters, mirroring :mod:`repro.mpi.topology`.  The reconstruction ring is
    neighbor point-to-point traffic, identical under either suite.

    The per-iteration communication follows the trace's own
    working-set-selection counters, whatever policy the trace ran
    with: ``wss_elections`` iterations paid the second-order
    phase-B combine (:func:`~repro.perfmodel.costs.wss2_election_time`)
    on top of the phase-A election, and ``wss_reuses`` iterations
    elected nothing at all (planning-ahead zero-communication reuse).
    Under ``"mvp"`` both counters are zero and the model reduces to the
    historical one-election-per-iteration shape.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if n_scale <= 0 or iteration_scale <= 0:
        raise ValueError("scales must be positive")
    if comm not in ("flat", "hierarchical"):
        raise ValueError(f"unknown comm {comm!r} (flat | hierarchical)")

    active = trace.active_counts.astype(np.float64) * n_scale
    iters = trace.iterations
    if iteration_scale != 1.0 and iters > 1:
        new_iters = max(1, int(round(iters * iteration_scale)))
        xs = np.linspace(0.0, 1.0, new_iters)
        xp = np.linspace(0.0, 1.0, iters)
        active = np.interp(xs, xp, active)
        iters = new_iters

    m = machine
    avg_nnz = max(trace.avg_nnz, 1.0)
    lam = m.time_kernel_evals(1.0, avg_nnz)
    sbytes = costs.sample_bytes(avg_nnz)

    # --- iterative part ------------------------------------------------
    per_rank_active = np.ceil(active / p)
    gamma_update = (2.0 * per_rank_active + 3.0) * lam
    select = m.time_flops(_SELECT_FLOPS * per_rank_active)
    iter_compute = float(np.sum(gamma_update + select))

    hier = comm == "hierarchical"
    _bcast = costs.hier_bcast_time if hier else costs.bcast_time

    # WSS accounting: phase-B combines and zero-communication reuse
    # iterations scale with the stretched iteration axis.  Under "mvp"
    # both trace counters are zero, so these reduce to the historical
    # one-election-per-iteration shape.
    scale_i = iters / float(trace.iterations) if trace.iterations > 0 else 1.0
    n_phase_b = float(trace.wss_elections) * scale_i
    n_reuse = float(trace.wss_reuses) * scale_i
    n_elect = max(0.0, float(iters) - n_reuse)
    if n_phase_b > 0:
        # phase-B curvature scoring over the rank's low candidates
        mean_active = float(np.mean(per_rank_active)) if iters > 0 else 0.0
        iter_compute += n_phase_b * float(m.time_flops(12.0 * mean_active))

    n_shrink_events = len(trace.shrink_iters)
    # owner-rooted binomial broadcasts fire only on resident-cache
    # misses; the miss sequence is fixed by the (p-independent)
    # iteration sequence, so the trace records the exact count —
    # including the phase-B up-sample fetches, which go through the
    # same stash-aware path.  Traces predating the counter fall back to
    # the 2-per-iteration upper bound.
    n_bcast = float(trace.pair_broadcasts or 2 * trace.iterations)
    n_bcast *= scale_i
    # one fused typed election Allreduce per electing iteration (reuse
    # iterations elect nothing); a shrink event widens the following
    # election by the piggybacked δ slot
    reduces = costs.election_time(m, p, comm=comm)
    iter_comm = n_bcast * _bcast(m, sbytes, p) + n_elect * reduces
    # phase-B typed MAXLOC_PAYLOAD combine on top of phase A
    iter_comm += n_phase_b * (
        costs.wss2_election_time(m, p, comm=comm) - reduces
    )
    iter_comm += n_shrink_events * (
        costs.election_time(m, p, with_shrink=True, comm=comm)
        - costs.election_time(m, p, comm=comm)
    )

    # --- reconstruction part -------------------------------------------
    recon_compute = 0.0
    recon_comm = 0.0
    for it, events in _events_by_round(trace).items():
        shrunk = sum(e.n_shrunk_local for e in events) * n_scale
        contrib = sum(e.n_contrib_local for e in events) * n_scale
        recon_compute += np.ceil(shrunk / p) * contrib * lam
        chunk_bytes = (contrib / p) * sbytes
        recon_comm += costs.ring_exchange_time(m, chunk_bytes, p)

    total = iter_compute + iter_comm + recon_compute + recon_comm
    return ProjectedTime(
        p=p,
        total=total,
        iter_compute=iter_compute,
        iter_comm=iter_comm,
        recon_compute=recon_compute,
        recon_comm=recon_comm,
    )


def _events_by_round(trace: "SolveTrace") -> Dict[int, List]:
    rounds: Dict[int, List] = {}
    for ev in trace.recon_events:
        rounds.setdefault(ev.iteration, []).append(ev)
    return rounds


def project_series(
    trace: "SolveTrace",
    machine: MachineSpec,
    ps: Iterable[int],
    **kwargs,
) -> List[ProjectedTime]:
    """Project the same trace at several process counts."""
    return [project(trace, machine, p, **kwargs) for p in ps]


def speedup_vs(
    times: List[ProjectedTime], reference_time: float
) -> List[float]:
    """Relative speedup of each projection against a reference time."""
    if reference_time <= 0:
        raise ValueError(f"reference time must be positive, got {reference_time}")
    return [reference_time / t.total for t in times]


def parallel_efficiency(times: List[ProjectedTime]) -> List[float]:
    """Efficiency relative to the smallest-p projection in the list."""
    if not times:
        return []
    base = times[0]
    return [
        (base.total * base.p) / (t.total * t.p) if t.total > 0 else 0.0
        for t in times
    ]


# ----------------------------------------------------------------------
# divide-and-conquer outer-loop projection (repro.core.dcsvm)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DCProjection:
    """Modeled DC outer-loop time at one process count."""

    p: int
    total: float
    sub_solve: float
    rotate: float
    sync: float
    setup: float


def project_dc_outer(
    rounds: Iterable[dict],
    machine: MachineSpec,
    p: int,
    *,
    n: int,
    avg_nnz: float,
    comm: str = "flat",
) -> DCProjection:
    """Price a recorded DC outer loop at ``p`` processes.

    ``rounds`` is the per-round record list from
    :meth:`repro.core.dcsvm.DCStats.to_dict` (each entry carries the
    cluster sizes, per-cluster iteration and kernel-evaluation counts,
    and the changed / cache-miss column counts).  The sub-solve
    iteration sequence is process-count independent (the solver
    guarantee the whole projector rests on), so the same recorded
    rounds replay at any ``p``: ranks are grouped ``min(p, k)`` ways,
    each group runs its share of the clusters back to back, and the
    round's makespan is the slowest group.  The per-iteration model
    mirrors :func:`project`, with the effective gamma-update width
    recovered from the recorded kernel evaluations (the sub-solves
    shrink, so the width is usually far below the cluster size).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if comm not in ("flat", "hierarchical"):
        raise ValueError(f"unknown comm {comm!r} (flat | hierarchical)")
    from ..sparse.partition import BlockPartition

    m = machine
    lam = m.time_kernel_evals(1.0, avg_nnz)
    sbytes = costs.sample_bytes(avg_nnz)
    _bcast = costs.hier_bcast_time if comm == "hierarchical" else costs.bcast_time

    sub_total = rotate_total = sync_total = 0.0
    pool = 0
    for r in rounds:
        sizes = r["cluster_sizes"]
        iters = r["iterations"]
        evals = r.get("kernel_evals") or [2 * it * sz for it, sz in zip(iters, sizes)]
        bcasts = r.get("pair_broadcasts") or [2 * it for it in iters]
        k_eff = len(sizes)
        ngroups = min(p, k_eff)
        gpart = BlockPartition(p, ngroups)
        cpart = BlockPartition(k_eff, ngroups)
        group_time = [0.0] * ngroups
        for c, (sz, it, ev, nb) in enumerate(zip(sizes, iters, evals, bcasts)):
            g = cpart.owner(c)
            p_c = min(gpart.count(g), sz)
            if it <= 0:
                continue
            # effective active width per iteration, recovered from the
            # recorded kernel-eval count (3 pair evals + 2*width update)
            width = min(float(sz), max(1.0, (ev / it - 3.0) / 2.0))
            per_rank = np.ceil(width / p_c)
            compute = (2.0 * per_rank + 3.0) * lam + m.time_flops(
                _SELECT_FLOPS * per_rank
            )
            group_time[g] += it * (
                compute + costs.election_time(m, p_c, comm=comm)
            )
            # owner-rooted pair broadcasts fire only on resident-cache
            # misses; the recorded per-cluster count prices them exactly
            group_time[g] += nb * _bcast(m, sbytes, p_c)
        sub_total += max(group_time) if group_time else 0.0
        rotate_total += costs.dc_rotate_time(
            m, n, r["k"], p, r.get("new_landmark_cols", 0), avg_nnz
        )
        sync_total += costs.dc_sync_time(
            m, n, p, r.get("changed", 0), r.get("new_sync_cols", 0), avg_nnz
        )
        pool = max(pool, r["k"])
    setup = (
        costs.dc_pool_time(m, n, avg_nnz)
        + costs.dc_scatter_time(m, n, p, avg_nnz)
        + costs.dc_project_time(m, n)
    )
    return DCProjection(
        p=p,
        total=sub_total + rotate_total + sync_total + setup,
        sub_solve=sub_total,
        rotate=rotate_total,
        sync=sync_total,
        setup=setup,
    )


@dataclass(frozen=True)
class FleetProjection:
    """Modeled steady-state serving fleet at one (p, replicas) point."""

    p: int
    replicas: int
    slab_rows: int
    #: one slab end-to-end on one shard-group (seconds)
    slab_time: float
    #: steady-state fleet throughput, every group pipelining slabs
    #: back to back (requests per second)
    throughput: float
    #: replacement shard-group re-shard from the registry blob (seconds)
    reshard_time: float
    #: kill -> healthy-replacement interval: detection + re-shard
    recovery_time: float
    #: requests whose completion the failover delays: the drained slab
    #: plus everything the fleet would have served during recovery
    requests_at_risk: float

    @property
    def recovery_slabs(self) -> float:
        """Slabs' worth of fleet capacity one failover consumes."""
        return self.recovery_time / self.slab_time if self.slab_time else 0.0


@dataclass(frozen=True)
class StreamProjection:
    """Modeled incremental-refresh step at one process count."""

    p: int
    #: γ-slab seeding for the appended batch (seconds)
    seed_time: float
    #: warm refit solve, projected from its trace (seconds)
    refit_time: float
    #: re-shard of the refreshed model onto the serving group (seconds)
    reshard_time: float
    #: cold full retrain, projected from its trace (seconds)
    cold_time: float

    @property
    def warm_total(self) -> float:
        """Seed + warm refit — the training cost of one stream step."""
        return self.seed_time + self.refit_time

    @property
    def time_to_refresh(self) -> float:
        """Batch arrival → refreshed model in service."""
        return self.warm_total + self.reshard_time

    @property
    def speedup(self) -> float:
        """Cold retrain time over the warm seed+refit time."""
        return self.cold_time / self.warm_total if self.warm_total > 0 else 0.0


def project_stream(
    warm_trace: "SolveTrace",
    cold_trace: "SolveTrace",
    machine: MachineSpec,
    p: int,
    *,
    n_new: int,
    n_sv: int,
    avg_nnz: float,
    comm: str = "flat",
) -> StreamProjection:
    """Price one incremental stream step against its cold baseline.

    ``warm_trace`` is the trace of the warm-started ``partial_fit``
    refit, ``cold_trace`` the trace of the certifying cold solve on the
    same accumulated set (both are process-count independent, so they
    replay at any ``p``).  On top of the projected refit the warm path
    pays the γ-seeding slab for the ``n_new`` appended rows
    (:func:`~repro.perfmodel.costs.stream_seed_time`); both paths pay
    the same fleet re-shard to put the refreshed model in service.
    """
    if n_new < 0 or n_sv < 0:
        raise ValueError(
            f"n_new and n_sv must be >= 0, got ({n_new}, {n_sv})"
        )
    refit = project(warm_trace, machine, p, comm=comm).total
    cold = project(cold_trace, machine, p, comm=comm).total
    seed = (
        costs.stream_seed_time(machine, n_new, n_sv, avg_nnz, p)
        if n_new and n_sv
        else 0.0
    )
    reshard = costs.fleet_reshard_time(machine, n_sv, avg_nnz, p)
    return StreamProjection(
        p=p,
        seed_time=seed,
        refit_time=refit,
        reshard_time=reshard,
        cold_time=cold,
    )


def project_fleet(
    machine: MachineSpec,
    *,
    n_sv: int,
    avg_nnz: float,
    p: int,
    replicas: int,
    slab_rows: int = 64,
) -> FleetProjection:
    """Price a replicated serving fleet analytically.

    The per-slab service time mirrors the simulated fleet's virtual-time
    charges (:func:`repro.perfmodel.costs.fleet_slab_time`), so the
    projection extrapolates the measured single-replica behaviour to
    replica counts no host could thread: fleet throughput scales
    linearly in ``replicas`` (shard-groups share nothing but the
    router), while one failover costs the fleet's failure-detection
    latency (:data:`repro.perfmodel.costs.DETECT_SECONDS`) plus the
    re-shard of the saved model onto ``p`` ranks.
    """
    if p < 1 or replicas < 1 or slab_rows < 1:
        raise ValueError(
            f"p, replicas and slab_rows must be >= 1, got "
            f"({p}, {replicas}, {slab_rows})"
        )
    slab_time = costs.fleet_slab_time(machine, slab_rows, n_sv, avg_nnz, p)
    throughput = replicas * slab_rows / slab_time if slab_time > 0 else 0.0
    reshard = costs.fleet_reshard_time(machine, n_sv, avg_nnz, p)
    recovery = costs.DETECT_SECONDS + reshard
    at_risk = slab_rows + throughput * recovery / max(replicas, 1)
    return FleetProjection(
        p=p,
        replicas=replicas,
        slab_rows=slab_rows,
        slab_time=slab_time,
        throughput=throughput,
        reshard_time=reshard,
        recovery_time=recovery,
        requests_at_risk=at_risk,
    )
