"""Serving determinism: batched/sharded/cached scores are bitwise
identical to a direct ``SVMModel.decision_function`` pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig
from repro.perfmodel.machine import MachineSpec
from repro.serve import (
    BatchPolicy,
    SCORED,
    burst_arrivals,
    poisson_arrivals,
    serve_requests,
)
from repro.serve.server import ShardScorer
from repro.sparse import BlockPartition, CSRMatrix
from repro.sparse.csr import ColumnIndex
from tests.conftest import same_bits


@pytest.mark.parametrize("nprocs", [1, 2, 4])
@pytest.mark.parametrize("max_batch", [1, 7, 64])
def test_bitwise_identity_across_batch_and_shards(
    served_model, requests_60, nprocs, max_batch
):
    model, _ = served_model
    direct = model.decision_function(requests_60)
    res = serve_requests(
        model, requests_60, burst_arrivals(60),
        policy=BatchPolicy(max_batch=max_batch, max_delay=0.0),
        config=RunConfig(nprocs=nprocs),
    )
    assert same_bits(res.scores, direct)
    assert np.all(res.status == SCORED)


def test_bitwise_identity_across_arrival_orders(served_model, requests_60):
    """The slab geometry changes with the arrival stream; scores don't."""
    model, _ = served_model
    direct = model.decision_function(requests_60)
    streams = [
        burst_arrivals(60),
        poisson_arrivals(60, rate=2000.0, seed=4),
        poisson_arrivals(60, rate=200_000.0, seed=5),
    ]
    geometries = set()
    for arrivals in streams:
        res = serve_requests(
            model, requests_60, arrivals,
            policy=BatchPolicy(max_batch=16, max_delay=300e-6),
            config=RunConfig(nprocs=2),
        )
        assert same_bits(res.scores, direct)
        geometries.add(tuple(s.size for s in res.schedule.slabs))
    # the check is only meaningful if the streams actually batched
    # differently
    assert len(geometries) > 1


def test_cached_scores_bitwise_equal(served_model, requests_60):
    model, _ = served_model
    X2 = CSRMatrix.vstack([requests_60, requests_60])
    arrivals = np.concatenate([np.zeros(60), np.full(60, 10.0)])
    res = serve_requests(
        model, X2, arrivals,
        policy=BatchPolicy(max_batch=16, max_delay=0.0),
        config=RunConfig(nprocs=2), cache_entries=256,
    )
    assert same_bits(res.scores, model.decision_function(X2))
    assert res.stats.n_cache_hits > 0


def _serve_faulted(served_model, requests_60, faults):
    model, _ = served_model
    direct = model.decision_function(requests_60)
    res = serve_requests(
        model, requests_60, burst_arrivals(60),
        policy=BatchPolicy(max_batch=8, max_delay=0.0),
        config=RunConfig(nprocs=2, faults=faults),
    )
    assert same_bits(res.scores, direct)
    assert 0 < res.spmd.fault_stats["stats"]["dropped"]


def test_faults_on_serving_path(served_model, requests_60):
    """Dropped slab messages are retried; scores stay bitwise exact and
    the fault engine reports activity."""
    _serve_faulted(served_model, requests_60, "seed=9;drop:prob=0.05")


def test_total_drop_on_serving_path(served_model, requests_60):
    """Every slab message dropped and recovered: still bitwise exact."""
    _serve_faulted(served_model, requests_60, "drop:prob=1.0")


def test_backpressure_under_overload(served_model, requests_60):
    model, _ = served_model
    direct = model.decision_function(requests_60)
    res = serve_requests(
        model, requests_60, burst_arrivals(60),
        policy=BatchPolicy(max_batch=4, max_delay=0.0, max_queue=8),
        config=RunConfig(nprocs=1),
    )
    assert res.stats.n_rejected > 0
    rejected = res.status == 3
    assert np.all(np.isnan(res.scores[rejected]))
    assert np.all(np.isnan(res.latencies[rejected]))
    scored = res.status == SCORED
    assert same_bits(res.scores[scored], direct[scored])


def test_stats_report_consistency(served_model, requests_60):
    model, _ = served_model
    res = serve_requests(
        model, requests_60, poisson_arrivals(60, rate=5000.0, seed=6),
        policy=BatchPolicy(max_batch=8, max_delay=400e-6),
        config=RunConfig(nprocs=2), cache_entries=64,
    )
    s = res.stats
    assert s.n_requests == 60
    assert s.n_scored + s.n_cache_hits + s.n_rejected == 60
    assert s.n_slabs == len(res.schedule.slabs)
    assert s.mean_slab_size == pytest.approx(
        np.mean([sl.size for sl in res.schedule.slabs])
    )
    assert 0.0 < s.latency_p50 <= s.latency_p99 <= s.latency_max
    assert s.throughput > 0 and s.makespan > 0
    assert s.nprocs == 2 and s.total_messages > 0
    assert set(s.to_dict()) >= {
        "latency_p50", "throughput", "cache", "n_rejected",
    }


def test_nprocs_cannot_exceed_sv_count(served_model, requests_60):
    model, _ = served_model
    with pytest.raises(ValueError, match="exceeds n_sv"):
        serve_requests(
            model, requests_60,
            config=RunConfig(nprocs=model.n_sv + 1),
        )


def test_modeled_batching_speedup(served_model, requests_60):
    """The modeled-throughput win that BENCH_serve.json quantifies."""
    model, _ = served_model

    def throughput(mb):
        res = serve_requests(
            model, requests_60, burst_arrivals(60),
            policy=BatchPolicy(max_batch=mb, max_delay=0.0),
            config=RunConfig(nprocs=1),
        )
        return res.stats.throughput

    assert throughput(60) >= 3.0 * throughput(1)


def test_only_wide_shards_are_indexed(served_model, sparse_model):
    """The wide sparse model's shards (at every nprocs the bitwise tests
    below use) are column-indexed; the 3-feature blobs shard stays CSR."""
    machine = MachineSpec.cascade()
    narrow, _ = served_model
    assert isinstance(
        ShardScorer(narrow, 0, narrow.n_sv, machine).shard, CSRMatrix
    )
    wide, _ = sparse_model
    for nprocs in (1, 2, 3):
        part = BlockPartition(wide.n_sv, nprocs)
        for rank in range(nprocs):
            scorer = ShardScorer(wide, *part.bounds(rank), machine)
            assert isinstance(scorer.shard, ColumnIndex)


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("max_batch", [1, 64])
def test_wide_sparse_shard_bitwise(sparse_model, nprocs, max_batch):
    """Each rank scores slabs against its column-indexed shard of a wide
    sparse SV set; scores stay bitwise those of ``decision_function``
    (the plain-tile path), empty and SV-disjoint request rows included."""
    model, requests = sparse_model
    n = requests.shape[0]
    res = serve_requests(
        model, requests, burst_arrivals(n),
        policy=BatchPolicy(max_batch=max_batch, max_delay=0.0),
        config=RunConfig(nprocs=nprocs),
    )
    assert np.all(res.status == SCORED)
    assert same_bits(res.scores, model.decision_function(requests))
