"""Fleet routing: per-tenant admission control + replica selection +
the failover state machine.

The router is the frontend's pure-bookkeeping brain.  It never touches
the simulated runtime itself — the fleet event loop
(:mod:`repro.serve.fleet`) drives it with simulated-clock timestamps and
asks three questions: *may this tenant's request enter the queue?*,
*which replica serves the next slab?*, and *what happens when a replica
dies?*  All answers are deterministic functions of the call sequence, so
a fleet session is reproducible end to end.

Admission control
-----------------
Each tenant gets a :class:`TenantQuota`: an optional cap on queued
requests (``max_queued``) and an optional token bucket (``rate`` tokens
per simulated second, depth ``burst``).  A request that finds its
tenant's queue share full or its bucket empty is **throttled** —
rejected at admission, before it can displace other tenants' work in the
shared queue.  This is distinct from backpressure (``REJECTED``), which
sheds load when the *global* queue bound is hit.

Replica lifecycle
-----------------
::

    HEALTHY --kill notification--> FAILED --replacement spawn--> RESHARDING
       ^                                                              |
       +----------- re-shard from registry completes -----------------+

A ``FAILED`` replica never serves again; its slot is immediately reborn
(generation + 1) as a ``RESHARDING`` replacement that loads the
registry's saved active model and becomes ``HEALTHY`` once the modeled
re-shard (scatter of the SV blocks, chainermn ``scatter_dataset`` style)
completes.  In-flight work from the failed slab is drained back to the
front of the queue and re-dispatched to whichever replica is available
first — never double-scored, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

#: replica lifecycle states
HEALTHY, FAILED, RESHARDING = "healthy", "failed", "resharding"


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant (both knobs optional).

    Parameters
    ----------
    max_queued:
        Cap on the tenant's simultaneously queued requests.
    rate:
        Token-bucket refill rate (requests per simulated second).
    burst:
        Token-bucket depth (the burst a quiet tenant may submit at once).
    """

    max_queued: Optional[int] = None
    rate: Optional[float] = None
    burst: float = 16.0

    def __post_init__(self) -> None:
        if self.max_queued is not None and self.max_queued < 1:
            raise ValueError(
                f"max_queued must be >= 1 or None, got {self.max_queued}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")

    @classmethod
    def parse(cls, spec: str) -> "TenantQuota":
        """Parse ``"rate=500,burst=8,max_queued=16"`` (any subset)."""
        kwargs: Dict[str, float] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            key = key.strip()
            if key == "max_queued":
                kwargs["max_queued"] = int(value)
            elif key == "rate":
                kwargs["rate"] = float(value)
            elif key == "burst":
                kwargs["burst"] = float(value)
            else:
                raise ValueError(
                    f"unknown tenant-quota key {key!r} "
                    f"(rate | burst | max_queued)"
                )
        return cls(**kwargs)  # type: ignore[arg-type]


def as_quota(quota) -> Optional[TenantQuota]:
    """Coerce ``None`` | spec-string | :class:`TenantQuota` to a quota."""
    if quota is None:
        return None
    if isinstance(quota, TenantQuota):
        return quota
    if isinstance(quota, str):
        return TenantQuota.parse(quota)
    raise TypeError(
        f"tenant quota must be a TenantQuota, spec string or None, "
        f"got {type(quota).__name__}"
    )


class _TenantState:
    __slots__ = ("tokens", "last_refill", "queued", "admitted", "throttled")

    def __init__(self, burst: float):
        self.tokens = burst
        self.last_refill = 0.0
        self.queued = 0
        self.admitted = 0
        self.throttled = 0


class AdmissionController:
    """Deterministic per-tenant admission over the simulated clock."""

    def __init__(
        self,
        default: Optional[TenantQuota] = None,
        per_tenant: Optional[Mapping[int, TenantQuota]] = None,
    ):
        self._default = default
        self._quotas = dict(per_tenant or {})
        self._states: Dict[int, _TenantState] = {}

    def _quota(self, tenant: int) -> Optional[TenantQuota]:
        return self._quotas.get(tenant, self._default)

    def _state(self, tenant: int) -> _TenantState:
        st = self._states.get(tenant)
        if st is None:
            quota = self._quota(tenant)
            st = _TenantState(quota.burst if quota else 0.0)
            self._states[tenant] = st
        return st

    def admit(self, tenant: int, t: float) -> bool:
        """May this tenant enqueue a request at simulated time ``t``?

        Consumes a token on admission.  Tenants without a quota are
        always admitted.
        """
        quota = self._quota(tenant)
        st = self._state(tenant)
        if quota is None:
            st.admitted += 1
            return True
        if quota.max_queued is not None and st.queued >= quota.max_queued:
            st.throttled += 1
            return False
        if quota.rate is not None:
            st.tokens = min(
                quota.burst, st.tokens + (t - st.last_refill) * quota.rate
            )
            st.last_refill = t
            if st.tokens < 1.0:
                st.throttled += 1
                return False
            st.tokens -= 1.0
        st.admitted += 1
        return True

    def on_enqueue(self, tenant: int) -> None:
        self._state(tenant).queued += 1

    def on_dequeue(self, tenant: int) -> None:
        self._state(tenant).queued -= 1

    def report(self) -> Dict[int, Dict[str, int]]:
        return {
            tenant: {"admitted": st.admitted, "throttled": st.throttled}
            for tenant, st in sorted(self._states.items())
        }


@dataclass
class ReplicaSlot:
    """One replica slot in the fleet (survives its replicas' deaths)."""

    slot_id: int
    state: str = HEALTHY
    #: simulated instant the current replica finishes its in-flight slab
    free_at: float = 0.0
    #: simulated instant the slot can next serve (> free_at only while a
    #: replacement is still re-sharding)
    available_at: float = 0.0
    #: how many replicas have occupied this slot (1 = the original)
    generation: int = 1
    slabs_served: int = 0
    #: registry version the resident shard-group currently holds
    sharded_version: Optional[int] = None

    def ready_at(self) -> float:
        """Earliest simulated instant this slot can accept a slab."""
        return max(self.free_at, self.available_at)


@dataclass
class FailoverEvent:
    """One kill -> drain -> re-shard transition, for the report."""

    time: float
    slot_id: int
    killed_rank: int
    generation: int
    drained_requests: int
    reshard_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "slot_id": self.slot_id,
            "killed_rank": self.killed_rank,
            "generation": self.generation,
            "drained_requests": self.drained_requests,
            "reshard_seconds": self.reshard_seconds,
        }


class Router:
    """Replica selection + failover bookkeeping for one fleet session."""

    def __init__(self, n_replicas: int):
        if n_replicas < 1:
            raise ValueError(f"need at least one replica, got {n_replicas}")
        self.slots: List[ReplicaSlot] = [
            ReplicaSlot(slot_id=i) for i in range(n_replicas)
        ]
        self.failovers: List[FailoverEvent] = []

    def earliest_ready(self) -> float:
        """The soonest any slot can accept a slab."""
        return min(slot.ready_at() for slot in self.slots)

    def acquire(self, t: float) -> ReplicaSlot:
        """Pick the slot that serves the slab dispatched at ``t``.

        Deterministic: the ready slot with the fewest served slabs,
        lowest id on ties (load balancing that is independent of host
        thread timing).  A slot still re-sharding becomes HEALTHY the
        first time it is acquired past its availability instant.
        """
        ready = [s for s in self.slots if s.ready_at() <= t]
        if not ready:
            raise RuntimeError(
                f"no replica ready at t={t} (earliest {self.earliest_ready()})"
            )
        slot = min(ready, key=lambda s: (s.slabs_served, s.slot_id))
        if slot.state == RESHARDING:
            slot.state = HEALTHY
        return slot

    def complete(self, slot: ReplicaSlot, t_done: float) -> None:
        slot.free_at = t_done
        slot.available_at = max(slot.available_at, t_done)
        slot.slabs_served += 1

    def fail(
        self,
        slot: ReplicaSlot,
        t_fail: float,
        *,
        killed_rank: int,
        drained_requests: int,
        reshard_seconds: float,
    ) -> FailoverEvent:
        """Kill notification: retire the replica, spawn the replacement.

        The slot passes through FAILED and is immediately reborn (next
        generation) in RESHARDING state; it can serve again once the
        modeled re-shard from the registry's saved model completes.
        """
        slot.state = FAILED  # the dying replica never serves again
        slot.generation += 1
        slot.state = RESHARDING
        slot.sharded_version = None  # the replacement re-loads from registry
        slot.free_at = t_fail
        slot.available_at = t_fail + reshard_seconds
        slot.slabs_served = 0
        event = FailoverEvent(
            time=t_fail,
            slot_id=slot.slot_id,
            killed_rank=killed_rank,
            generation=slot.generation,
            drained_requests=drained_requests,
            reshard_seconds=reshard_seconds,
        )
        self.failovers.append(event)
        return event
