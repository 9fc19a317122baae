"""Serving determinism: batched/sharded/cached scores are bitwise
identical to a direct ``SVMModel.decision_function`` pass."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import RunConfig
from repro.core import SVMModel, decision_function_parallel
from repro.core.model import weighted_slab
from repro.kernels import LinearKernel, PolynomialKernel, RBFKernel
from repro.serve import (
    BatchPolicy,
    SCORED,
    burst_arrivals,
    poisson_arrivals,
    serve_fleet,
    serve_requests,
)
from repro.sparse import CSRMatrix
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


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("max_batch", [1, 64])
def test_wide_sparse_shard_bitwise(sparse_model, nprocs, max_batch):
    """Each rank scores slabs shard-major against its part of a wide
    sparse SV set; scores stay bitwise those of ``decision_function``,
    empty and SV-disjoint request rows included."""
    model, requests = sparse_model
    n = requests.shape[0]
    res = serve_requests(
        model, requests, burst_arrivals(n),
        policy=BatchPolicy(max_batch=max_batch, max_delay=0.0),
        config=RunConfig(nprocs=nprocs),
    )
    assert np.all(res.status == SCORED)
    assert same_bits(res.scores, model.decision_function(requests))


# ----------------------------------------------------------------------
# differential: every scoring entry point, on adversarial inputs
# ----------------------------------------------------------------------
@st.composite
def scoring_problems(draw):
    """A random model and request set over ``d`` features.

    Values are negative as often as positive; rows run from nearly
    empty to nearly dense, so some segment sums are long enough (≥ 8
    terms) for their summation order to show in the bits.  Each when
    drawn: an empty (zero-norm) support vector, an empty request, a
    request living only in the last two columns, which no support
    vector uses, and a duplicated request.  Also a split of the SV
    rows into shards, for the slab check."""
    d = draw(st.integers(3, 24))
    n_sv = draw(st.integers(1, 7))
    n_req = draw(st.integers(1, 8))
    cut = draw(st.sampled_from([1.0, 4.0, 7.0]))
    value = st.floats(-8, 8, allow_nan=False).map(
        lambda x: 0.0 if abs(x) < cut else x
    )
    sv = draw(arrays(np.float64, (n_sv, d), elements=value))
    sv[:, -2:] = 0.0
    if draw(st.booleans()):
        sv[draw(st.integers(0, n_sv - 1))] = 0.0
    req = draw(arrays(np.float64, (n_req, d), elements=value))
    if draw(st.booleans()):
        req = np.vstack([req, np.zeros(d)])
    if draw(st.booleans()):
        disjoint = np.zeros(d)
        disjoint[-2:] = [-draw(st.floats(0.5, 8)), draw(st.floats(-8, 8))]
        req = np.vstack([disjoint, req])
    if draw(st.booleans()):
        req = np.vstack([req, req[:1]])
    kernel = draw(st.sampled_from([
        RBFKernel(0.3), LinearKernel(), PolynomialKernel(2, 0.5, 1.0),
    ]))
    model = SVMModel(
        sv_X=CSRMatrix.from_dense(sv),
        sv_coef=draw(arrays(np.float64, n_sv, elements=st.floats(-10, 10))),
        sv_indices=np.arange(n_sv),
        beta=draw(st.floats(-2, 2)),
        kernel=kernel,
    )
    cuts = sorted(draw(st.sets(st.integers(1, n_sv), max_size=3)) | {n_sv})
    return model, CSRMatrix.from_dense(req), cuts


@settings(max_examples=60, deadline=None)
@given(problem=scoring_problems())
def test_scoring_entry_points_agree_bitwise(problem):
    """``serve_requests`` ≡ ``serve_fleet`` ≡ ``decision_function`` ≡
    ``decision_function_parallel``, bit for bit, at every p (× max_batch
    for ``serve_requests``; a two-replica fleet at one max_batch);
    ``decision_function`` does not depend on ``block_rows``; and its
    ``weighted_slab`` is the hstack of per-shard slabs for any split of
    the support vectors, each row the row-at-a-time kernel row of its
    request, weighted."""
    model, X, cuts = problem
    n = X.shape[0]
    direct = model.decision_function(X)
    for block_rows in (1, 2, 3):
        assert same_bits(model.decision_function(X, block_rows=block_rows), direct)

    kernel, sv, coef = model.kernel, model.sv_X, model.sv_coef
    norms, sv_norms = X.row_norms_sq(), sv.row_norms_sq()
    slab = weighted_slab(kernel, sv, sv_norms, coef, X, norms)
    assert same_bits(np.add.reduce(slab, axis=1) - model.beta, direct)
    shards = np.hstack([
        weighted_slab(
            kernel, sv.row_slice(lo, hi), sv_norms[lo:hi], coef[lo:hi],
            X, norms,
        )
        for lo, hi in zip([0] + cuts[:-1], cuts)
    ])
    assert same_bits(shards, slab)
    for i in range(n):
        row = kernel.row_against_block(sv, sv_norms, *X.row(i), norms[i])
        assert same_bits(slab[i], row * coef)

    for p in (1, 2, 3):
        out = decision_function_parallel(model, X, config=RunConfig(nprocs=p))
        assert same_bits(out.decision_values, direct)
        if p > model.n_sv:
            continue
        for max_batch in (1, 3, 64):
            res = serve_requests(
                model, X, burst_arrivals(n),
                policy=BatchPolicy(max_batch=max_batch, max_delay=0.0),
                config=RunConfig(nprocs=p),
            )
            assert np.all(res.status == SCORED)
            assert same_bits(res.scores, direct)
        fleet = serve_fleet(
            model, X, burst_arrivals(n),
            policy=BatchPolicy(max_batch=3, max_delay=0.0),
            config=RunConfig(nprocs=p, replicas=2),
        )
        assert np.all(fleet.status == SCORED)
        assert same_bits(fleet.scores, direct)


def test_slab_broadcast_is_a_frame(served_model, requests_60, monkeypatch):
    """A fault-free p=2 session pickles nothing but its closing
    broadcast: each slab's rows travel as a CSR blob in a typed frame,
    and the scores stay bitwise those of direct scoring."""
    from repro.mpi.message import Envelope

    model, _ = served_model
    pickled = []
    from_object = Envelope.from_object.__func__

    def spy(cls, src, dest, tag, context, obj, depart_time):
        pickled.append(obj)
        return from_object(cls, src, dest, tag, context, obj, depart_time)

    monkeypatch.setattr(Envelope, "from_object", classmethod(spy))
    res = serve_requests(
        model, requests_60, np.arange(60) * 150e-6,
        policy=BatchPolicy(max_batch=8, max_delay=200e-6),
        config=RunConfig(nprocs=2),
    )
    assert pickled == [None]
    assert int(res.stats.n_slabs) > 1
    direct = model.decision_function(requests_60)
    assert same_bits(res.scores, direct)
