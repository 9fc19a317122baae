"""Self-healing replicated serving fleet.

One :func:`serve_fleet` call runs a whole multi-replica serving session:
``replicas`` independent SV-sharded shard-groups (each a ``p``-rank SPMD
scorer, exactly the :func:`~repro.serve.server.serve_requests` scoring
pipeline) behind one router frontend that does per-tenant admission
control, microbatching, replica selection, versioned hot-swap, and
fault-driven failover.

Execution model
---------------
The frontend is a deterministic discrete-event loop over the simulated
clock (the :mod:`repro.serve.batching` trigger rules, generalized from
one scorer to N).  Each dispatched slab runs as its own small SPMD job
(:meth:`ShardGroup.score_slab`): broadcast the request rows, then the
same :class:`~repro.serve.server.ShardScorer` slab body as
``serve_requests`` — per-rank weighted kernel sub-slabs against shards
prepared (indexed, when wide) once per shard-group, gathered in rank
order, one full-width
``np.add.reduce``.  That is byte-for-byte the computation
``SVMModel.decision_function`` performs, so **every scored request is
bitwise equal to direct scoring by the model version that served it** —
across replica counts, shard counts, batch geometry, failovers and
hot-swaps.

Failover
--------
Kill faults use the real fault layer: a :class:`KillReplica` event
installs a ``kill`` fault on the victim slab job, and the fault engine's
kill-notification hook tells the router which rank died.  The router
then (a) drains the in-flight slab back to the front of the queue —
those requests re-dispatch to whichever replica is ready first, so none
is dropped and none double-scored (the failed attempt wrote nothing) —
and (b) replaces the dead shard-group with a fresh one **re-sharded from
the registry's saved blob** (the persistence-v2 exact round-trip), which
rejoins after the modeled re-shard interval.

Hot-swap
--------
:class:`SwapModel` atomically activates a registry version at a
simulated instant.  From that instant, cache probes run against the new
version's namespace (the retired namespace is flushed) and every
*subsequently dispatched* slab is scored by the new version — each
shard-group pays one modeled re-shard at its next dispatch boundary.
Slabs already in flight complete under the version that admitted them;
``FleetResult.versions`` records which version scored each request, so
staleness is auditable per request.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import RunConfig
from ..core.model import SVMModel, _as_csr
from ..mpi.errors import InjectedFault, SpmdJobError
from ..mpi.faults import Fault, FaultPlan, as_plan
from ..mpi.runtime import SpmdResult, run_spmd
from ..perfmodel import costs
from ..perfmodel.machine import MachineSpec
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .batching import (
    CACHE_HIT,
    REJECTED,
    SCORED,
    THROTTLED,
    BatchPolicy,
    Schedule,
    SlabRecord,
    next_dispatch,
    validate_arrivals,
)
from .cache import ResultCache, request_key
from .registry import ModelRegistry
from .router import AdmissionController, FailoverEvent, Router, as_quota
from .server import ShardScorer
from .stats import ServeStats, build_stats, jsonable_float


class ReplicaFailure(Exception):
    """A shard-group died mid-slab (a ``kill`` fault fired in a rank)."""

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"replica rank {rank} killed mid-slab")


@dataclass(frozen=True)
class KillReplica:
    """Kill ``rank`` of replica slot ``slot`` on its first slab
    dispatched at or after simulated time ``time``.

    ``after`` is the rank's n-th posted send within that slab job (1 =
    die at the very first message), letting tests kill mid-broadcast or
    mid-gather.
    """

    time: float
    slot: int
    rank: int = 1
    after: int = 1


@dataclass(frozen=True)
class SwapModel:
    """Atomically activate registry ``version`` at simulated ``time``."""

    time: float
    version: int


FleetEvent = Union[KillReplica, SwapModel]


class ShardGroup:
    """One replica: a model block-sharded over a ``p``-rank scorer."""

    def __init__(
        self,
        model: SVMModel,
        nprocs: int,
        *,
        machine: Optional[MachineSpec] = None,
        comm: Optional[str] = None,
        deadlock_timeout: float = 120.0,
    ):
        if nprocs > model.n_sv:
            raise ValueError(
                f"nprocs={nprocs} exceeds n_sv={model.n_sv}: "
                f"every rank needs a non-empty support-vector shard"
            )
        self.model = model
        self.nprocs = nprocs
        self.machine = machine if machine is not None else MachineSpec.cascade()
        self.comm = comm
        self.deadlock_timeout = deadlock_timeout
        part = BlockPartition(model.n_sv, nprocs)
        # every rank's shard is prepared once, for all the group's slabs
        self.scorers = [
            ShardScorer(model, *part.bounds(r), self.machine)
            for r in range(nprocs)
        ]

    def score_slab(
        self,
        rows: CSRMatrix,
        row_norms: np.ndarray,
        *,
        faults=None,
        on_kill=None,
    ) -> Tuple[np.ndarray, float, SpmdResult]:
        """Score one slab as a standalone SPMD job.

        Returns ``(values, service_vtime, spmd_result)``.  Raises
        :class:`ReplicaFailure` when a ``kill`` fault fired inside the
        job; any other rank failure propagates as
        :class:`~repro.mpi.errors.SpmdJobError`.
        """
        out: Dict[str, object] = {}

        def entry(comm):
            payload = (rows, row_norms) if comm.rank == 0 else None
            slab = comm.bcast(payload, root=0)
            values = self.scorers[comm.rank].score(comm, *slab)
            if comm.rank == 0:
                out["values"] = values
                out["vtime"] = comm.vtime

        try:
            spmd = run_spmd(
                entry, self.nprocs, machine=self.machine,
                deadlock_timeout=self.deadlock_timeout, faults=faults,
                comm=self.comm, on_kill=on_kill,
            )
        except SpmdJobError as exc:
            killed = sorted(
                r for r, e in exc.failures.items()
                if isinstance(e, InjectedFault)
            )
            if killed:
                raise ReplicaFailure(killed[0]) from exc
            raise
        return out["values"], float(out["vtime"]), spmd


@dataclass
class FleetStats:
    """Fleet-level report, alongside the per-request ServeStats."""

    replicas: int
    nprocs: int
    n_failovers: int
    n_swaps: int
    n_reshards: int
    detect_seconds: float
    reshard_seconds: float
    failovers: List[FailoverEvent] = field(default_factory=list)
    swaps: List[Dict[str, object]] = field(default_factory=list)
    #: one record per *successful* slab: (slot, generation, version, size)
    slab_log: List[Dict[str, object]] = field(default_factory=list)
    per_tenant: Dict[int, Dict[str, int]] = field(default_factory=dict)
    slabs_per_slot: Dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Strict-JSON-safe plain data (non-finite floats -> null)."""
        return {
            "replicas": self.replicas,
            "nprocs": self.nprocs,
            "n_failovers": self.n_failovers,
            "n_swaps": self.n_swaps,
            "n_reshards": self.n_reshards,
            "detect_seconds": jsonable_float(self.detect_seconds),
            "reshard_seconds": jsonable_float(self.reshard_seconds),
            "failovers": [f.to_dict() for f in self.failovers],
            "swaps": list(self.swaps),
            "slabs_per_slot": {
                str(k): v for k, v in sorted(self.slabs_per_slot.items())
            },
            "per_tenant": {
                str(k): dict(v) for k, v in sorted(self.per_tenant.items())
            },
        }


@dataclass
class FleetResult:
    """Everything one fleet serving session produced."""

    #: decision-function value per request (NaN for rejected/throttled)
    scores: np.ndarray
    #: per-request disposition (SCORED / CACHE_HIT / REJECTED / THROTTLED)
    status: np.ndarray
    #: registry version that produced each score (-1 when unscored)
    versions: np.ndarray
    completion_times: np.ndarray
    latencies: np.ndarray
    stats: ServeStats
    fleet: FleetStats
    schedule: Schedule
    registry: ModelRegistry


def _kill_plan(base, kill: KillReplica) -> FaultPlan:
    """The slab job's fault plan: the session plan + the injected kill."""
    plan = as_plan(base) or FaultPlan()
    fault = Fault(kind="kill", rank=kill.rank, after=kill.after)
    return FaultPlan(
        faults=plan.faults + (fault,), seed=plan.seed, retry=plan.retry
    )


def serve_fleet(
    source: Union[ModelRegistry, SVMModel],
    X: Union[CSRMatrix, np.ndarray],
    arrivals: Optional[np.ndarray] = None,
    *,
    tenants: Optional[np.ndarray] = None,
    policy: Optional[BatchPolicy] = None,
    config: Optional[RunConfig] = None,
    per_tenant_quotas: Optional[Dict[int, object]] = None,
    cache_entries: int = 0,
    cache: Optional[ResultCache] = None,
    events: Sequence[FleetEvent] = (),
) -> FleetResult:
    """Serve one request stream on a replicated, self-healing fleet.

    ``source`` is a :class:`~repro.serve.registry.ModelRegistry` (for
    multi-version sessions with hot-swap) or a bare
    :class:`~repro.core.model.SVMModel` (auto-published as version 1).
    ``tenants`` assigns each request an integer tenant id (default: one
    tenant); ``config.tenant_quota`` is the default admission quota,
    overridable per tenant through ``per_tenant_quotas``.  ``events``
    schedules :class:`KillReplica` / :class:`SwapModel` happenings on
    the simulated clock.  Run-time knobs — shard ranks, replica count,
    machine, fault plan — ride in one :class:`~repro.config.RunConfig`
    (``None`` means ``RunConfig()``).

    Every scored request is bitwise equal to
    ``registry.load(version).decision_function(row)`` for the version
    recorded in ``FleetResult.versions`` — the slab-reduction guarantee
    survives failover and hot-swap.
    """
    cfg = config if config is not None else RunConfig()
    policy = policy or BatchPolicy()
    n_replicas = cfg.replicas
    if isinstance(source, ModelRegistry):
        registry = source
    else:
        registry = ModelRegistry()
        registry.publish(source)
    active = registry.active_version
    if active is None:
        raise ValueError("registry holds no published model to serve")

    machine_eff = cfg.machine if cfg.machine is not None else MachineSpec.cascade()
    first_model = registry.load(active)
    X = _as_csr(X, first_model.sv_X.shape[1])
    n = X.shape[0]
    arrivals = validate_arrivals(
        np.zeros(n) if arrivals is None else arrivals, n
    )
    if tenants is None:
        tenants = np.zeros(n, dtype=np.int64)
    tenants = np.asarray(tenants, dtype=np.int64)
    if tenants.shape != (n,):
        raise ValueError(f"{tenants.shape[0]} tenant ids for {n} requests")

    norms = X.row_norms_sq()
    cache = cache if cache is not None else ResultCache(cache_entries)
    admission = AdmissionController(
        default=as_quota(cfg.tenant_quota),
        per_tenant={
            k: as_quota(v) for k, v in (per_tenant_quotas or {}).items()
        },
    )
    router = Router(n_replicas)

    def spawn_group(version: int) -> ShardGroup:
        """A fresh shard-group re-sharded from the registry's blob."""
        return ShardGroup(
            registry.load(version), cfg.nprocs, machine=machine_eff,
            comm=cfg.comm, deadlock_timeout=cfg.deadlock_timeout,
        )

    groups: Dict[int, ShardGroup] = {}
    for slot in router.slots:
        groups[slot.slot_id] = spawn_group(active)
        slot.sharded_version = active

    reshard_seconds = costs.fleet_reshard_time(
        machine_eff, first_model.n_sv, first_model.sv_X.avg_row_nnz or 1.0,
        cfg.nprocs,
    )

    kills: List[KillReplica] = sorted(
        (e for e in events if isinstance(e, KillReplica)),
        key=lambda e: (e.time, e.slot),
    )
    swaps: List[SwapModel] = sorted(
        (e for e in events if isinstance(e, SwapModel)), key=lambda e: e.time
    )
    for k in kills:
        if not 0 <= k.slot < n_replicas:
            raise ValueError(f"kill event names slot {k.slot} of {n_replicas}")
    for s in swaps:
        if s.version not in registry:
            raise ValueError(f"swap event names unknown version {s.version}")
    kill_fired = [False] * len(kills)

    scores = np.full(n, np.nan)
    versions = np.full(n, -1, dtype=np.int64)
    status = np.zeros(n, dtype=np.int64)
    completion = np.full(n, np.nan)
    schedule = Schedule(status=status, completion=completion)

    fleet_stats = FleetStats(
        replicas=n_replicas,
        nprocs=cfg.nprocs,
        n_failovers=0,
        n_swaps=0,
        n_reshards=0,
        detect_seconds=costs.DETECT_SECONDS,
        reshard_seconds=reshard_seconds,
    )
    total_bytes = 0
    total_messages = 0
    swap_idx = 0

    def apply_swaps(t: float) -> None:
        """Activate every swap event due by simulated time ``t``."""
        nonlocal swap_idx, active
        while swap_idx < len(swaps) and swaps[swap_idx].time <= t:
            ev = swaps[swap_idx]
            swap_idx += 1
            previous = registry.activate(ev.version)
            flushed = 0
            if previous is not None and previous != ev.version:
                # retire the old version's cache entries wholesale: a
                # probe can no longer hit them (namespace mismatch), so
                # they are dead capacity
                flushed = cache.flush_namespace(registry.fingerprint(previous))
            active = ev.version
            fleet_stats.n_swaps += 1
            fleet_stats.swaps.append({
                "time": ev.time,
                "from_version": previous,
                "to_version": ev.version,
                "flushed_entries": flushed,
            })

    def pending_kill(slot_id: int, t: float) -> Optional[int]:
        for idx, k in enumerate(kills):
            if not kill_fired[idx] and k.slot == slot_id and k.time <= t:
                return idx
        return None

    t0 = time.perf_counter()
    queue: List[int] = []  # ids in arrival order (drains re-prepend)
    i = 0

    while i < n or queue:
        t_dispatch = next_dispatch(
            arrivals, queue, policy, router.earliest_ready(), i >= n
        )
        if i < n and arrivals[i] <= t_dispatch:
            t = float(arrivals[i])
            apply_swaps(t)
            tenant = int(tenants[i])
            if not admission.admit(tenant, t):
                status[i] = THROTTLED
            else:
                value = cache.get(
                    request_key(X, i), registry.fingerprint(active)
                )
                if value is not None:
                    status[i] = CACHE_HIT
                    completion[i] = t
                    scores[i] = value
                    versions[i] = active
                elif (
                    policy.max_queue is not None
                    and len(queue) >= policy.max_queue
                ):
                    status[i] = REJECTED
                else:
                    queue.append(i)
                    admission.on_enqueue(tenant)
                    schedule.peak_queue_depth = max(
                        schedule.peak_queue_depth, len(queue)
                    )
            i += 1
            continue

        apply_swaps(t_dispatch)
        take = min(len(queue), policy.max_batch)
        ids = np.array(queue[:take], dtype=np.int64)
        del queue[:take]
        slot = router.acquire(t_dispatch)
        group = groups[slot.slot_id]

        t_start = t_dispatch
        if slot.sharded_version != active:
            # hot-swap pickup: this shard-group re-shards the newly
            # active version from the registry before serving
            group = groups[slot.slot_id] = spawn_group(active)
            slot.sharded_version = active
            fleet_stats.n_reshards += 1
            t_start += reshard_seconds
        overhead = machine_eff.time_flops(
            costs.DISPATCH_OVERHEAD_FLOPS
            + costs.REQUEST_OVERHEAD_FLOPS * ids.size
        )

        kill_idx = pending_kill(slot.slot_id, t_dispatch)
        plan = cfg.faults
        kill_notices: List[Tuple[int, int]] = []
        if kill_idx is not None:
            kill_fired[kill_idx] = True
            plan = _kill_plan(cfg.faults, kills[kill_idx])

        rows = X.take_rows(ids)
        row_norms = norms[ids]
        try:
            values, vtime, spmd = group.score_slab(
                rows, row_norms, faults=plan,
                on_kill=lambda rank, ordinal: kill_notices.append(
                    (rank, ordinal)
                ),
            )
        except ReplicaFailure as failure:
            # the kill-notification hook saw the dying rank; the router
            # drains the in-flight slab and spawns a replacement
            killed_rank = (
                kill_notices[0][0] if kill_notices else failure.rank
            )
            t_fail = t_start + overhead + costs.DETECT_SECONDS
            router.fail(
                slot, t_fail, killed_rank=killed_rank,
                drained_requests=int(ids.size),
                reshard_seconds=reshard_seconds,
            )
            fleet_stats.n_failovers += 1
            groups[slot.slot_id] = spawn_group(active)
            slot.sharded_version = active
            # drain: the slab's requests return to the queue head in
            # arrival order and re-dispatch to the next ready replica
            queue[:0] = ids.tolist()
            continue

        t_done = t_start + overhead + vtime
        scores[ids] = values
        versions[ids] = slot.sharded_version
        status[ids] = SCORED
        completion[ids] = t_done
        ns = registry.fingerprint(slot.sharded_version)
        for rid, value in zip(ids, values):
            cache.put(request_key(X, int(rid)), float(value), ns)
            admission.on_dequeue(int(tenants[rid]))
        router.complete(slot, t_done)
        total_bytes += spmd.total_bytes_sent
        total_messages += spmd.total_messages
        schedule.slabs.append(SlabRecord(t_dispatch, t_done, int(ids.size)))
        fleet_stats.slab_log.append({
            "t_dispatch": t_dispatch,
            "t_done": t_done,
            "size": int(ids.size),
            "slot": slot.slot_id,
            "generation": slot.generation,
            "version": int(slot.sharded_version),
            "ids": ids.tolist(),
        })

    apply_swaps(math.inf)  # record swaps scheduled after the last event
    wall = time.perf_counter() - t0

    fleet_stats.failovers = list(router.failovers)
    fleet_stats.per_tenant = admission.report()
    fleet_stats.slabs_per_slot = {
        s.slot_id: sum(
            1 for rec in fleet_stats.slab_log if rec["slot"] == s.slot_id
        )
        for s in router.slots
    }
    stats = build_stats(
        schedule, arrivals, cache.stats(),
        nprocs=n_replicas * cfg.nprocs,
        total_bytes_sent=total_bytes,
        total_messages=total_messages,
        wall_seconds=wall,
    )
    return FleetResult(
        scores=scores,
        status=status,
        versions=versions,
        completion_times=completion,
        latencies=schedule.latencies(arrivals),
        stats=stats,
        fleet=fleet_stats,
        schedule=schedule,
        registry=registry,
    )
