"""``repro.serve`` — deterministic microbatched model serving.

The serving subsystem scores streams of single-row requests against a
trained :class:`~repro.core.model.SVMModel` on the simulated runtime:

- :mod:`batching` — the microbatch scheduler (max-batch / max-delay /
  bounded-queue policy over a discrete-event simulated clock);
- :mod:`cache` — LRU result cache keyed by request-row content,
  namespaced by model version;
- :mod:`server` — :func:`~repro.serve.server.run_session`, the one
  serving SPMD session (support-vector-sharded scorer ranks driven by
  rank 0), and :func:`serve_requests`, which drives one session with
  the microbatch scheduler;
- :mod:`registry` — :class:`ModelRegistry`, versioned models via the
  persistence-v2 exact round-trip, with atomic activation;
- :mod:`router` — per-tenant admission control + replica selection +
  the failover state machine;
- :mod:`fleet` — :func:`serve_fleet`, the self-healing replicated
  fleet (N shard-group replicas, each one long-lived session;
  fault-driven failover, hot-swap);
- :mod:`stats` — latency percentiles / throughput / cache report;
- :mod:`loadgen` — seeded arrival streams and request sampling.

Served scores are bitwise identical to ``SVMModel.decision_function``
for every batch policy, arrival order, shard count, replica count,
failover and hot-swap history — serving is an optimization, never a
numerics change.
"""

from ..perfmodel.costs import (
    DETECT_SECONDS,
    DISPATCH_OVERHEAD_FLOPS,
    REQUEST_OVERHEAD_FLOPS,
)
from .batching import (
    CACHE_HIT,
    REJECTED,
    SCORED,
    THROTTLED,
    BatchPolicy,
    Schedule,
    SlabRecord,
    run_schedule,
)
from .cache import DEFAULT_NAMESPACE, ResultCache, request_key
from .fleet import (
    FleetResult,
    FleetStats,
    KillReplica,
    ReplicaFailure,
    ShardGroup,
    SwapModel,
    serve_fleet,
)
from .loadgen import (
    burst_arrivals,
    poisson_arrivals,
    sample_requests,
    uniform_arrivals,
)
from .registry import ModelRegistry, model_fingerprint
from .router import (
    AdmissionController,
    FailoverEvent,
    Router,
    TenantQuota,
    as_quota,
)
from .server import ServeResult, serve_requests
from .stats import ServeStats, build_stats, jsonable_float

__all__ = [
    "AdmissionController",
    "BatchPolicy",
    "CACHE_HIT",
    "DEFAULT_NAMESPACE",
    "DETECT_SECONDS",
    "DISPATCH_OVERHEAD_FLOPS",
    "FailoverEvent",
    "FleetResult",
    "FleetStats",
    "KillReplica",
    "ModelRegistry",
    "REJECTED",
    "REQUEST_OVERHEAD_FLOPS",
    "ReplicaFailure",
    "ResultCache",
    "Router",
    "SCORED",
    "Schedule",
    "ServeResult",
    "ServeStats",
    "ShardGroup",
    "SlabRecord",
    "SwapModel",
    "THROTTLED",
    "TenantQuota",
    "as_quota",
    "build_stats",
    "burst_arrivals",
    "jsonable_float",
    "model_fingerprint",
    "poisson_arrivals",
    "request_key",
    "run_schedule",
    "sample_requests",
    "serve_fleet",
    "serve_requests",
    "uniform_arrivals",
]
