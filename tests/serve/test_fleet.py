"""Fleet invariants: failover exactness, hot-swap freshness, admission.

The load-bearing guarantee: **every request the fleet scores is bitwise
equal to ``decision_function`` of the model version that served it**,
no request is dropped, and none is scored twice — through replica
kills, drains, re-shards from the registry, and atomic hot-swaps.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.config import RunConfig
from repro.perfmodel.machine import MachineSpec
from repro.serve import (
    CACHE_HIT,
    SCORED,
    THROTTLED,
    BatchPolicy,
    KillReplica,
    ModelRegistry,
    ReplicaFailure,
    ResultCache,
    ShardGroup,
    SwapModel,
    TenantQuota,
    serve_fleet,
    serve_requests,
)
from repro.serve import server
from tests.conftest import same_bits

POLICY = BatchPolicy(max_batch=8, max_delay=200e-6)


@pytest.fixture(scope="module")
def fleet_requests(served_model):
    from repro.serve import sample_requests

    _, pool = served_model
    X_req = sample_requests(pool, 48, seed=5)
    arrivals = np.arange(48) * 250e-6  # steady traffic over ~12ms
    return X_req, arrivals


def _audit_exactness(res, X_req):
    """Completion + exactly-once + bitwise-per-version, for any run.

    Every request reaches a terminal disposition (throttle/reject are
    terminal — "dropped" means left pending with status 0)."""
    assert (res.status != 0).all(), "a request was dropped"
    done = (res.status == SCORED) | (res.status == CACHE_HIT)
    counts = np.zeros(X_req.shape[0], dtype=np.int64)
    for rec in res.fleet.slab_log:
        counts[rec["ids"]] += 1
    scored = res.status == SCORED
    assert np.array_equal(counts[scored], np.ones(int(scored.sum()))), (
        "a request was double-scored or lost in a slab"
    )
    assert not counts[~scored].any()
    for version in sorted(set(res.versions[done].tolist())):
        sel = done & (res.versions == version)
        idx = np.where(sel)[0]
        direct = res.registry.load(int(version)).decision_function(
            X_req.take_rows(idx)
        )
        assert same_bits(res.scores[sel], direct), (
            f"scores diverge from the version {version} that served them"
        )


@pytest.mark.parametrize("nprocs", [2, 4])
@pytest.mark.parametrize("replicas", [2, 3])
def test_kill_mid_traffic_failover(served_model, fleet_requests,
                                   nprocs, replicas):
    model, _ = served_model
    X_req, arrivals = fleet_requests
    t_kill = float(arrivals[len(arrivals) // 3])
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=nprocs, replicas=replicas),
        events=[KillReplica(time=t_kill, slot=replicas - 1)],
    )
    _audit_exactness(res, X_req)
    assert res.fleet.n_failovers == 1
    failover = res.fleet.failovers[0]
    assert failover.slot_id == replicas - 1
    assert failover.generation == 2  # the replacement replica
    assert failover.drained_requests >= 1
    assert failover.reshard_seconds > 0
    # the drained slab really was re-served by a healthy replica
    assert np.all(res.status == SCORED)
    # the failed attempt is not in the stats' slab accounting
    assert res.stats.n_slabs == len(res.fleet.slab_log)


def test_kill_every_rank_position(served_model, fleet_requests):
    """The kill may land on any rank of the group, frontend included."""
    model, _ = served_model
    X_req, arrivals = fleet_requests
    for rank in (0, 1, 2):
        res = serve_fleet(
            model, X_req, arrivals, policy=POLICY,
            config=RunConfig(nprocs=3, replicas=2),
            events=[KillReplica(time=float(arrivals[10]), slot=0, rank=rank)],
        )
        _audit_exactness(res, X_req)
        assert res.fleet.n_failovers == 1
        assert res.fleet.failovers[0].killed_rank == rank


def test_hot_swap_serves_zero_stale(served_model, fleet_requests):
    """Mid-stream activation: scorers AND cache switch versions; no
    request is served a retired version's score after its swap."""
    from repro.core import SVC
    from tests.conftest import make_blobs

    model, _ = served_model
    X, y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)
    model2 = SVC(C=1.0, sigma_sq=8.0).fit(X, y).model_
    X_req, arrivals = fleet_requests

    registry = ModelRegistry()
    v1 = registry.publish(model, label="v1")
    v2 = registry.publish(model2, label="v2")
    registry.activate(v1)
    t_swap = float(arrivals[len(arrivals) // 2])
    res = serve_fleet(
        registry, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2),
        cache_entries=256,
        events=[SwapModel(time=t_swap, version=v2)],
    )
    _audit_exactness(res, X_req)
    assert res.fleet.n_swaps == 1
    assert set(res.versions.tolist()) == {v1, v2}
    done = (res.status == SCORED) | (res.status == CACHE_HIT)
    # no v1 score completes after the swap has taken effect on dispatch:
    # a request admitted pre-swap may complete under v1, but everything
    # ADMITTED at or after the swap is served by v2
    admitted_after = arrivals >= t_swap
    assert np.all(res.versions[done & admitted_after] == v2)
    # the registry's active pointer ends on v2 and the v1 cache
    # namespace was flushed at the swap
    assert registry.active_version == v2
    assert res.fleet.swaps[0]["from_version"] == v1
    assert res.fleet.swaps[0]["flushed_entries"] >= 0


def test_hot_swap_cache_cannot_replay_old_version(served_model):
    """Duplicate rows straddling the swap: the pre-swap cached score for
    identical content must NOT be replayed post-swap."""
    from repro.core import SVC
    from tests.conftest import make_blobs
    from repro.serve import sample_requests
    from repro.sparse import CSRMatrix

    model, pool = served_model
    X, y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)
    model2 = SVC(C=1.0, sigma_sq=8.0).fit(X, y).model_

    wave = sample_requests(pool, 16, seed=9)
    X_req = CSRMatrix.vstack([wave, wave])  # identical content twice
    arrivals = np.concatenate([np.arange(16) * 100e-6,
                               5.0 + np.arange(16) * 100e-6])
    registry = ModelRegistry()
    v1 = registry.publish(model)
    v2 = registry.publish(model2)
    registry.activate(v1)
    res = serve_fleet(
        registry, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2),
        cache_entries=256,
        events=[SwapModel(time=2.0, version=v2)],
    )
    _audit_exactness(res, X_req)
    # wave 2 re-sends wave 1's rows AFTER the swap: none may hit wave
    # 1's v1-namespace entries (flushed/segregated) — every wave-2 value
    # is v2's, bitwise.  (Hits between duplicate rows WITHIN wave 2 are
    # fine: they replay a v2 score.)
    assert np.all(res.versions[16:] == v2)
    assert same_bits(res.scores[16:], model2.decision_function(wave))
    hits2 = res.status[16:] == CACHE_HIT
    assert int(hits2.sum()) < 16  # pre-fix: all 16 replayed stale v1 scores


def test_tenant_throttling_isolates_noisy_neighbor(served_model,
                                                   fleet_requests):
    model, _ = served_model
    X_req, arrivals = fleet_requests
    tenants = np.where(np.arange(48) % 2 == 0, 0, 1)
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2),
        tenants=tenants,
        per_tenant_quotas={1: TenantQuota(rate=400.0, burst=2.0)},
    )
    # tenant 0 is untouched; tenant 1 exceeds 400 req/s and sheds load
    throttled = res.status == THROTTLED
    assert throttled.any()
    assert np.all(tenants[throttled] == 1)
    assert res.stats.n_throttled == int(throttled.sum())
    report = res.fleet.per_tenant
    assert report[0]["throttled"] == 0
    assert report[1]["throttled"] == int(throttled.sum())
    # everything admitted still completes bitwise-exactly
    _audit_exactness(res, X_req)
    done = (res.status == SCORED) | (res.status == CACHE_HIT)
    assert np.array_equal(done, ~throttled)


def test_tenant_quota_spec_string_via_config(served_model, fleet_requests):
    model, _ = served_model
    X_req, arrivals = fleet_requests
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY,
        config=RunConfig(
            nprocs=2, replicas=2, tenant_quota="rate=400,burst=2",
        ),
    )
    assert (res.status == THROTTLED).any()
    _audit_exactness(res, X_req)


def test_single_replica_matches_direct(served_model, fleet_requests):
    """replicas=1, no events: the fleet is just a sharded scorer."""
    model, _ = served_model
    X_req, arrivals = fleet_requests
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY, config=RunConfig(nprocs=2),
    )
    assert np.all(res.status == SCORED)
    assert same_bits(res.scores, model.decision_function(X_req))
    assert res.fleet.n_failovers == 0 and res.fleet.n_swaps == 0


def test_external_cache_and_stats_strict_json(served_model, fleet_requests):
    model, _ = served_model
    X_req, arrivals = fleet_requests
    shared = ResultCache(128)
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2), cache=shared,
        events=[KillReplica(time=float(arrivals[5]), slot=0)],
    )
    _audit_exactness(res, X_req)
    assert len(shared) > 0
    import json

    def no_constants(name):
        raise AssertionError(f"non-strict JSON literal leaked: {name}")

    payload = {"stats": res.stats.to_dict(), "fleet": res.fleet.to_dict()}
    json.loads(json.dumps(payload, allow_nan=False),
               parse_constant=no_constants)


def test_event_validation(served_model, fleet_requests):
    """Bad events are rejected before any shard-group session starts."""
    model, _ = served_model
    X_req, arrivals = fleet_requests
    threads = threading.active_count()
    with pytest.raises(ValueError, match="slot"):
        serve_fleet(model, X_req, arrivals,
                    config=RunConfig(nprocs=2, replicas=2),
                    events=[KillReplica(time=0.0, slot=5)])
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match="version"):
        serve_fleet(model, X_req, arrivals,
                    config=RunConfig(nprocs=2, replicas=2),
                    events=[SwapModel(time=0.0, version=7)])
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match="replicas"):
        RunConfig(replicas=0)


@pytest.mark.parametrize("faults", [None, "seed=5;drop:prob=1.0"])
def test_sessions_leave_no_thread_behind(served_model, fleet_requests,
                                         faults):
    """Every shard-group session is closed and joined before the fleet
    returns, also when every message is dropped and re-requested."""
    model, _ = served_model
    X_req, arrivals = fleet_requests
    threads = threading.active_count()
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2, faults=faults),
    )
    assert threading.active_count() == threads
    _audit_exactness(res, X_req)


@pytest.mark.parametrize(
    "case",
    [
        {},
        {"cache_entries": 16},
        {"config": RunConfig(nprocs=2, faults="seed=5;drop:prob=0.05")},
    ],
    ids=["fault-free", "cache", "drop"],
)
def test_one_replica_fleet_is_serve_requests(served_model, requests_60,
                                             case):
    """With one replica the fleet runs serve_requests' session body on
    the same slabs: every number the two report agrees bit for bit."""
    model, _ = served_model
    kw = {"config": RunConfig(nprocs=2), **case}
    arrivals = np.arange(60) * 150e-6
    a = serve_requests(model, requests_60, arrivals, policy=POLICY, **kw)
    b = serve_fleet(model, requests_60, arrivals, policy=POLICY, **kw)
    assert same_bits(a.scores, b.scores)
    assert np.array_equal(a.status, b.status)
    assert same_bits(a.completion_times, b.completion_times)
    assert a.stats.total_messages == b.stats.total_messages
    assert a.stats.total_bytes_sent == b.stats.total_bytes_sent
    if "cache_entries" in case:
        assert (b.status == CACHE_HIT).any()


def test_fleet_honours_trace(sparse_model):
    """``RunConfig.trace`` reaches every shard-group session: with one
    replica the fleet's closed sessions record the events
    ``serve_requests`` records, as a multiset of (rank, kind, op, peer,
    nbytes)."""
    model, requests = sparse_model
    n = requests.shape[0]
    arrivals = np.arange(n) * 150e-6
    cfg = RunConfig(nprocs=2, trace=True)
    a = serve_requests(model, requests, arrivals, policy=POLICY, config=cfg)
    b = serve_fleet(model, requests, arrivals, policy=POLICY, config=cfg)

    def events(results):
        return Counter(
            (e.rank, e.kind, e.op, e.peer, e.nbytes)
            for r in results for e in r.tracer.events
        )

    assert len(b.sessions) == 1
    assert sum(events([a.spmd]).values()) > 0
    assert events(b.sessions) == events([a.spmd])


def test_one_job_per_group_session(served_model, fleet_requests,
                                   monkeypatch):
    """The fleet starts one SPMD job per shard-group it spawns (the
    initial replicas, each failover and hot-swap re-shard) and per
    kill-armed slab, however many slabs it scores."""
    from repro.core import SVC
    from tests.conftest import make_blobs

    jobs = []
    run_spmd = server.run_spmd

    def counting(*args, **kwargs):
        jobs.append(kwargs.get("faults"))
        return run_spmd(*args, **kwargs)

    monkeypatch.setattr(server, "run_spmd", counting)
    model, _ = served_model
    X_req, arrivals = fleet_requests
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2),
    )
    assert len(jobs) == 2 < res.stats.n_slabs

    jobs.clear()
    X, y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)
    registry = ModelRegistry()
    v1 = registry.publish(model)
    v2 = registry.publish(SVC(C=1.0, sigma_sq=8.0).fit(X, y).model_)
    registry.activate(v1)
    events = [
        KillReplica(time=float(arrivals[5]), slot=0, rank=0, after=2),
        KillReplica(time=float(arrivals[12]), slot=1),
        SwapModel(time=float(arrivals[30]), version=v2),
    ]
    res = serve_fleet(
        registry, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2), events=events,
    )
    _audit_exactness(res, X_req)
    assert res.fleet.n_failovers == 1 and res.fleet.n_reshards == 2
    armed = sum(plan is not None for plan in jobs)
    assert armed == 2
    assert len(jobs) == 2 + res.fleet.n_failovers + res.fleet.n_reshards + armed


def test_fleet_bitwise_identical_under_perturbed_schedules(
    served_model, fleet_requests
):
    """Three replicas of three ranks (twelve threads on fewer cores)
    under a failover, with the interpreter switching threads every
    10 µs: every score, completion time and slab placement matches the
    default-schedule run bit for bit."""
    model, _ = served_model
    X_req, arrivals = fleet_requests

    def run():
        return serve_fleet(
            model, X_req, arrivals, policy=POLICY,
            config=RunConfig(nprocs=3, replicas=3),
            events=[KillReplica(time=float(arrivals[20]), slot=1)],
        )

    ref = run()
    default = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        res = run()
    finally:
        sys.setswitchinterval(default)
    assert same_bits(res.scores, ref.scores)
    assert same_bits(res.completion_times, ref.completion_times)
    assert res.fleet.slab_log == ref.fleet.slab_log
    assert res.stats.total_messages == ref.stats.total_messages
    assert res.fleet.n_failovers == 1


def test_shard_group_keeps_one_session(served_model, fleet_requests):
    """A ShardGroup scores slab after slab on one session, runs a
    kill-armed slab in a session of its own, and closes with the
    session's job result; a group that cannot shard its model fails at
    construction and leaves no thread behind."""
    model, _ = served_model
    X_req, _ = fleet_requests
    norms = X_req.row_norms_sq()
    threads = threading.active_count()
    machine = MachineSpec.cascade()
    with pytest.raises(ValueError, match="exceeds n_sv"):
        ShardGroup(model, model.n_sv + 1, machine=machine)
    assert threading.active_count() == threads

    group = ShardGroup(model, 2, machine=machine)
    t_done = 0.0
    for lo in (0, 8, 16):
        ids = np.arange(lo, lo + 8)
        values, t_done = group.score_slab(X_req, norms, ids, t_done)
        assert same_bits(values, model.decision_function(X_req.take_rows(ids)))
    ids = np.arange(24, 32)
    values, _ = group.score_slab(
        X_req, norms, ids, t_done, kill=KillReplica(0.0, 0, rank=1, after=2)
    )
    assert same_bits(values, model.decision_function(X_req.take_rows(ids)))
    with pytest.raises(ReplicaFailure) as failure:
        group.score_slab(X_req, norms, ids, t_done,
                         kill=KillReplica(0.0, 0, rank=1, after=1))
    assert failure.value.rank == 1
    spmd = group.close()
    assert threading.active_count() == threads
    # three slabs (a broadcast and a gather each) and the closing broadcast
    assert spmd.total_messages == 3 * 2 + 1


@pytest.mark.parametrize(
    "kill",
    [KillReplica(time=0.0, slot=0, rank=0, after=2),
     KillReplica(time=0.0, slot=0, rank=1, after=5)],
    ids=["rank0-after2", "rank1-after5"],
)
def test_kill_counts_sends_within_its_slab(served_model, fleet_requests,
                                           kill):
    """At p=2 a slab costs rank 0 one send (the broadcast) and rank 1
    one (its gather part), so a kill at a later ordinal never fires:
    the kill-armed slab's session ends without a closing broadcast."""
    model, _ = served_model
    X_req, arrivals = fleet_requests
    res = serve_fleet(
        model, X_req, arrivals, policy=POLICY,
        config=RunConfig(nprocs=2, replicas=2), events=[kill],
    )
    assert res.fleet.n_failovers == 0
    assert np.all(res.status == SCORED)
    _audit_exactness(res, X_req)


#: (request rows, arrival times, the one message both entry points give)
BAD_STREAMS = {
    "empty": (0, [], "empty arrival stream"),
    "decreasing": (2, [1e-3, 0.0], "arrival times must be nondecreasing"),
    "negative": (2, [-1e-3, 0.0], "arrival times must be >= 0"),
    "nan": (3, [0.0, np.nan, 1e-3], "arrival times must be finite"),
    "inf": (2, [0.0, np.inf], "arrival times must be finite"),
}


@pytest.mark.parametrize("stream", sorted(BAD_STREAMS))
@pytest.mark.parametrize("entry", [serve_requests, serve_fleet])
def test_bad_arrival_stream_rejected_before_any_job(
    served_model, entry, stream
):
    """Both serving entry points reject a bad arrival stream with the
    same plain ValueError before any SPMD job starts (a rank's failure
    would surface as SpmdJobError)."""
    model, pool = served_model
    n, arrivals, message = BAD_STREAMS[stream]
    with pytest.raises(ValueError) as ei:
        entry(model, pool.row_slice(0, n), np.array(arrivals),
              config=RunConfig(nprocs=2))
    assert type(ei.value) is ValueError
    assert str(ei.value) == message


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("max_batch", [1, 64])
def test_wide_sparse_shard_bitwise(sparse_model, nprocs, max_batch):
    """Shard-groups score against shards indexed once per group; on a
    wide sparse SV set every score is bitwise ``decision_function``'s,
    empty and SV-disjoint request rows included."""
    model, requests = sparse_model
    n = requests.shape[0]
    res = serve_fleet(
        model, requests, np.zeros(n),
        policy=BatchPolicy(max_batch=max_batch, max_delay=0.0),
        config=RunConfig(nprocs=nprocs, replicas=2),
    )
    assert np.all(res.status == SCORED)
    assert same_bits(res.scores, model.decision_function(requests))
