"""Self-healing replicated serving fleet.

One :func:`serve_fleet` call runs a whole multi-replica serving session:
``replicas`` independent SV-sharded shard-groups (each a ``p``-rank
:func:`~repro.serve.server.run_session`, the same session body as
:func:`~repro.serve.server.serve_requests`) behind one router frontend
that does per-tenant admission control, microbatching, replica
selection, versioned hot-swap, and fault-driven failover.

Execution model
---------------
The frontend is a deterministic discrete-event loop over the simulated
clock (the :mod:`repro.serve.batching` trigger rules, generalized from
one scorer to N).  Each shard-group is one serving session, kept with
its ranks and their prepared shards from spawn until failover or a
hot-swap re-shard; :meth:`ShardGroup.score_slab` hands it one slab at
a time.  A slab is scored exactly as in ``serve_requests`` (with one
replica the fleet reports ``serve_requests``' numbers bit for bit), so
**every scored request is bitwise equal to direct scoring by the model
version that served it** — across replica counts, shard counts, batch
geometry, failovers and hot-swaps.

Failover
--------
Kill faults use the real fault layer: a :class:`KillReplica` event runs
the victim group's next slab in a one-slab session of its own, under
the session fault plan plus a ``kill`` fault, so ``after`` counts the
victim rank's sends within that slab; a kill that has not fired when
the scores are back never fires.  When it fires, the router (a) drains
the in-flight slab back to the front of the queue — those requests
re-dispatch to whichever replica is ready first, so none is dropped and
none double-scored (the failed attempt wrote nothing) — and (b)
replaces the shard-group with a fresh session **re-sharded from the
registry's saved blob** (the persistence-v2 exact round-trip), which
rejoins after the modeled re-shard interval.

Hot-swap
--------
:class:`SwapModel` atomically activates a registry version at a
simulated instant.  From that instant, cache probes run against the new
version's namespace (the retired namespace is flushed) and every
*subsequently dispatched* slab is scored by the new version — each
shard-group pays one modeled re-shard at its next dispatch boundary,
where its session is replaced.  Slabs already in flight complete under
the version that admitted them; ``FleetResult.versions`` records which
version scored each request, so staleness is auditable per request.
"""

from __future__ import annotations

import math
import threading
import time
from queue import SimpleQueue
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import RunConfig
from ..core.model import SVMModel, _as_csr
from ..mpi.errors import InjectedFault, SpmdJobError
from ..mpi.faults import Fault, FaultPlan, as_plan
from ..mpi.runtime import SpmdResult
from ..perfmodel import costs
from ..perfmodel.machine import MachineSpec
from ..sparse.csr import CSRMatrix
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
from .server import run_session
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

    ``after`` is the rank's n-th posted send within that slab (1 = die
    at the very first message), letting tests kill mid-broadcast or
    mid-gather; a rank that sends fewer messages in the slab survives.
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


class _SlabScored(Exception):
    """Rank 0 ends a one-slab session with this, carrying the slab's
    ``(values, t_done)``, once its scores are back: no closing
    broadcast, so no send after the slab's own can count toward a
    kill."""


def _kill_plan(base, kill: KillReplica) -> FaultPlan:
    """A one-slab session's fault plan: the session plan + the kill."""
    plan = as_plan(base) or FaultPlan()
    fault = Fault(kind="kill", rank=kill.rank, after=kill.after)
    return FaultPlan(faults=plan.faults + (fault,), seed=plan.seed)


def _raise_failure(exc: BaseException) -> None:
    """Raise a session's error as the fleet sees it: a
    :class:`ReplicaFailure` when a ``kill`` fault fired in a rank, else
    the error itself."""
    if isinstance(exc, SpmdJobError):
        killed = sorted(
            r for r, e in exc.failures.items() if isinstance(e, InjectedFault)
        )
        if killed:
            raise ReplicaFailure(killed[0]) from exc
    raise exc


class ShardGroup:
    """One replica: ``model`` block-sharded over one ``nprocs``-rank
    serving session (:func:`~repro.serve.server.run_session`) that runs
    on a host thread from construction until :meth:`close`.

    ``faults`` is the session's fault plan; ``spmd`` (``comm``,
    ``trace``, ``deadlock_timeout``) is passed on to the job.
    Construction raises what the session raises before it can score
    (``nprocs > n_sv``).
    """

    def __init__(
        self, model: SVMModel, nprocs: int, *, machine: MachineSpec,
        faults=None, **spmd,
    ):
        self.model, self.nprocs, self.machine = model, nprocs, machine
        self.faults = faults
        self._spmd = spmd
        self._result: Optional[SpmdResult] = None
        self._slabs: SimpleQueue = SimpleQueue()
        self._replies: SimpleQueue = SimpleQueue()
        self._thread = threading.Thread(
            target=self._session, name="shard-group", daemon=True
        )
        self._thread.start()
        try:
            self._reply()  # the session is up
        except BaseException:
            self._thread.join()
            raise

    def _run(self, drive, faults):
        return run_session(
            self.model, self.nprocs, drive, machine=self.machine,
            faults=faults, **self._spmd,
        )

    def _session(self) -> None:
        def drive(score) -> None:
            self._replies.put(None)
            while (slab := self._slabs.get()) is not None:
                self._replies.put(score(*slab))

        try:
            _, self._result = self._run(drive, self.faults)
        except BaseException as exc:  # noqa: BLE001 - handed to the fleet
            self._replies.put(exc)

    def _reply(self):
        reply = self._replies.get()
        if isinstance(reply, BaseException):
            _raise_failure(reply)
        return reply

    def score_slab(
        self,
        X: CSRMatrix,
        norms: np.ndarray,
        ids: np.ndarray,
        t_dispatch: float,
        *,
        kill: Optional[KillReplica] = None,
    ) -> Tuple[np.ndarray, float]:
        """Score rows ``ids`` of ``X`` (squared norms ``norms``) as one
        slab dispatched at ``t_dispatch``; returns ``(values, t_done)``.

        With ``kill`` the slab runs in a one-slab session of its own,
        under the group's fault plan plus the kill, and the group's own
        session waits.  Raises :class:`ReplicaFailure` when a ``kill``
        fault fired; any other rank failure propagates as
        :class:`~repro.mpi.errors.SpmdJobError`.
        """
        if kill is None:
            self._slabs.put((X, norms, ids, t_dispatch))
            return self._reply()

        def drive(score) -> None:
            raise _SlabScored(score(X, norms, ids, t_dispatch))

        try:  # drive always raises, so the session never returns
            self._run(drive, _kill_plan(self.faults, kill))
        except SpmdJobError as exc:
            scored = exc.failures.get(0)
            if not isinstance(scored, _SlabScored):
                _raise_failure(exc)
            return scored.args[0]

    def close(self) -> Optional[SpmdResult]:
        """End the session and join its thread; returns the session's
        job result (``None`` when it failed: its error went to the
        slab that saw it)."""
        self._slabs.put(None)
        self._thread.join()
        return self._result


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
    #: every cleanly closed shard-group session, in closing order (each
    #: holds its job's rank stats and, under ``RunConfig.trace``, its
    #: trace)
    sessions: List[SpmdResult]


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

    reshard_seconds = costs.fleet_reshard_time(
        machine_eff, first_model.n_sv, first_model.sv_X.avg_row_nnz or 1.0,
        cfg.nprocs,
    )
    scores = np.full(n, np.nan)
    versions = np.full(n, -1, dtype=np.int64)
    status = np.zeros(n, dtype=np.int64)
    completion = np.full(n, np.nan)
    schedule = Schedule(status=status, completion=completion)
    # the cache key of each queued request, built once at admission and
    # stored with its score (none without a cache)
    keys: Dict[int, Optional[bytes]] = {}

    fleet_stats = FleetStats(
        replicas=n_replicas,
        nprocs=cfg.nprocs,
        n_failovers=0,
        n_swaps=0,
        n_reshards=0,
        detect_seconds=costs.DETECT_SECONDS,
        reshard_seconds=reshard_seconds,
    )
    groups: Dict[int, ShardGroup] = {}
    sessions: List[SpmdResult] = []  # every cleanly closed group session
    swap_idx = 0

    def close_group(slot_id: int) -> None:
        spmd = groups.pop(slot_id).close()
        if spmd is not None:
            sessions.append(spmd)

    def spawn_group(slot, version: int) -> None:
        """Give ``slot`` a fresh shard-group re-sharded from the
        registry's blob, closing the session it replaces."""
        if slot.slot_id in groups:
            close_group(slot.slot_id)
        groups[slot.slot_id] = ShardGroup(
            registry.load(version), cfg.nprocs, machine=machine_eff,
            faults=cfg.faults, comm=cfg.comm, trace=cfg.trace,
            deadlock_timeout=cfg.deadlock_timeout,
        )
        slot.sharded_version = version

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

    def take_kill(slot_id: int, t: float) -> Optional[KillReplica]:
        """The first unfired kill of ``slot_id`` due by ``t``, now fired."""
        for k in kills:
            if k.slot == slot_id and k.time <= t:
                kills.remove(k)
                return k
        return None

    t0 = time.perf_counter()
    queue: List[int] = []  # ids in arrival order (drains re-prepend)
    i = 0
    try:
        for slot in router.slots:
            spawn_group(slot, active)

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
                    key = request_key(X, i) if cache.capacity else None
                    value = cache.get(key, registry.fingerprint(active))
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
                        keys[i] = key
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

            t_start = t_dispatch
            if slot.sharded_version != active:
                # hot-swap pickup: this shard-group re-shards the newly
                # active version from the registry before serving
                spawn_group(slot, active)
                fleet_stats.n_reshards += 1
                t_start += reshard_seconds

            try:
                values, t_done = groups[slot.slot_id].score_slab(
                    X, norms, ids, t_start,
                    kill=take_kill(slot.slot_id, t_dispatch),
                )
            except ReplicaFailure as failure:
                # the router notices the death DETECT_SECONDS after the
                # slab left the frontend, drains the in-flight slab and
                # spawns a replacement
                t_fail = (
                    t_start + costs.dispatch_time(machine_eff, ids.size)
                    + costs.DETECT_SECONDS
                )
                router.fail(
                    slot, t_fail, killed_rank=failure.rank,
                    drained_requests=int(ids.size),
                    reshard_seconds=reshard_seconds,
                )
                fleet_stats.n_failovers += 1
                spawn_group(slot, active)
                # drain: the slab's requests return to the queue head in
                # arrival order and re-dispatch to the next ready replica
                queue[:0] = ids.tolist()
                continue

            scores[ids] = values
            versions[ids] = slot.sharded_version
            status[ids] = SCORED
            completion[ids] = t_done
            ns = registry.fingerprint(slot.sharded_version)
            for rid, value in zip(ids.tolist(), values.tolist()):
                cache.put(keys.pop(rid), value, ns)
                admission.on_dequeue(int(tenants[rid]))
            router.complete(slot, t_done)
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
    finally:
        for slot_id in list(groups):
            close_group(slot_id)

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
        total_bytes_sent=sum(r.total_bytes_sent for r in sessions),
        total_messages=sum(r.total_messages for r in sessions),
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
        sessions=sessions,
    )
