"""Result-cache unit tests: LRU discipline and hit accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig
from repro.serve import BatchPolicy, ResultCache, request_key, serve_requests
from repro.sparse import CSRMatrix


def test_lru_eviction_order():
    c = ResultCache(2)
    c.put(b"a", 1.0)
    c.put(b"b", 2.0)
    assert c.get(b"a") == 1.0  # refreshes a
    c.put(b"c", 3.0)  # evicts b (LRU)
    assert c.get(b"b") is None
    assert c.get(b"a") == 1.0 and c.get(b"c") == 3.0
    assert c.evictions == 1


def test_hit_miss_accounting():
    c = ResultCache(4)
    assert c.get(b"x") is None
    c.put(b"x", 7.0)
    assert c.get(b"x") == 7.0
    assert (c.hits, c.misses) == (1, 1)
    assert c.stats()["hit_rate"] == 0.5


def test_capacity_zero_disables():
    c = ResultCache(0)
    c.put(b"x", 1.0)
    assert c.get(b"x") is None
    assert len(c) == 0 and c.misses == 1  # the probe misses


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ResultCache(-1)


def test_request_key_is_content_based():
    X = CSRMatrix.from_dense(
        np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0], [1.0, 0.0, 3.0]])
    )
    assert request_key(X, 0) == request_key(X, 1)
    assert request_key(X, 0) != request_key(X, 2)


def test_serve_hit_accounting_exact(served_model, requests_60):
    """Second wave of an identical request stream hits entirely."""
    model, _ = served_model
    X2 = CSRMatrix.vstack([requests_60, requests_60])
    arrivals = np.concatenate([np.zeros(60), np.full(60, 5.0)])
    res = serve_requests(
        model, X2, arrivals,
        policy=BatchPolicy(max_batch=64, max_delay=0.0),
        config=RunConfig(nprocs=1), cache_entries=256,
    )
    # wave 1 contains duplicates (duplicate_fraction=0.25 in the pool
    # sample) but they all miss — the burst admits everything before the
    # first slab completes.  Wave 2 arrives after the drain: all 60 hit.
    assert res.stats.n_cache_hits == 60
    assert np.all(res.status[60:] == 2)  # CACHE_HIT
    assert res.stats.cache["hits"] == 60
    assert res.stats.cache["hit_rate"] == pytest.approx(0.5)
    # hits complete at their arrival instant: zero queueing latency
    assert np.all(res.latencies[60:] == 0.0)


def test_serve_cache_disabled_by_default(served_model, requests_60):
    model, _ = served_model
    res = serve_requests(
        model, requests_60, None,
        policy=BatchPolicy(max_batch=16),
        config=RunConfig(nprocs=1),
    )
    assert res.stats.n_cache_hits == 0
    assert res.stats.cache["capacity"] == 0


# -------------------------------------------------------------------------
# request_key encoding regression (delimiter-collision satellite fix)
# -------------------------------------------------------------------------

def _adversarial_rows():
    """Rows whose payload bytes are built to confuse a delimiter-based
    encoding: values containing the legacy ``|`` (0x7c) delimiter byte,
    an index whose bytes equal another row's data bytes, and an empty
    row."""
    pipe_float = float(np.frombuffer(b"|" * 8, "<f8")[0])
    mimic = float(np.frombuffer(np.array([5], dtype="<i8").tobytes(), "<f8")[0])
    dense = np.zeros((5, 400))
    dense[0, 5] = pipe_float       # data bytes are eight '|' bytes
    dense[1, 5] = mimic            # data bytes == row 0's index bytes
    dense[2, 5] = pipe_float
    dense[2, 124] = 1.0            # 124 == 0x7c: index bytes contain '|'
    dense[3, 124] = 1.0
    # row 4 stays empty
    return CSRMatrix.from_dense(dense)


def test_request_key_distinct_on_delimiter_adversaries():
    """Distinct rows -> distinct keys even when payloads embed the old
    delimiter byte.  The legacy ``idx + b"|" + data`` concatenation had
    no structural guarantee here — injectivity hinged on the accident
    that both sections share an element count and width, and broke the
    moment keys were composed with anything else (exactly what the
    version-namespace refactor needs)."""
    X = _adversarial_rows()
    keys = [request_key(X, i) for i in range(X.shape[0])]
    assert len(set(keys)) == len(keys)


def test_request_key_is_prefix_free():
    """No key is a prefix of another, so concatenating a key with ANY
    suffix (composed lookup structures, serialized stores) can never
    alias a different row.  Length-prefixed dtype-tagged sections give
    this structurally; a bare ``|`` delimiter cannot, because 0x7c is a
    legal payload byte."""
    X = _adversarial_rows()
    keys = [request_key(X, i) for i in range(X.shape[0])]
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            if i != j:
                assert not b.startswith(a)


def test_request_key_tags_dtype_and_length():
    """The key binds dtype tags and section lengths, not just raw bytes."""
    X = CSRMatrix.from_dense(np.array([[0.0, 3.5, 0.0, 1.25]]))
    key = request_key(X, 0)
    assert np.array([1, 3], dtype=np.int64).dtype.str.encode() in key
    assert np.array([3.5], dtype=np.float64).dtype.str.encode() in key
    assert np.array([1, 3], dtype=np.int64).tobytes() in key
    assert np.array([3.5, 1.25]).tobytes() in key


# -------------------------------------------------------------------------
# model-version namespaces (stale-hit satellite fix)
# -------------------------------------------------------------------------

def test_namespaces_isolate_same_key():
    c = ResultCache(8)
    c.put(b"k", 1.0, b"model-a")
    c.put(b"k", 2.0, b"model-b")
    assert c.get(b"k", b"model-a") == 1.0
    assert c.get(b"k", b"model-b") == 2.0
    assert c.get(b"k", b"model-c") is None
    assert c.namespaces() == {b"model-a": 1, b"model-b": 1}


def test_flush_namespace_retires_one_model():
    c = ResultCache(8)
    c.put(b"k1", 1.0, b"old")
    c.put(b"k2", 2.0, b"old")
    c.put(b"k1", 3.0, b"new")
    assert c.flush_namespace(b"old") == 2
    assert c.get(b"k1", b"old") is None
    assert c.get(b"k1", b"new") == 3.0
    assert c.flushed == 2
    assert c.stats()["flushed"] == 2


def test_stale_model_hit_regression(served_model, requests_60):
    """A shared cache serving two different models must never replay one
    model's scores for the other.  Before the namespace fix the second
    session hit on row content alone and served version-1 values."""
    from repro.core import SVC
    from tests.conftest import make_blobs, same_bits

    model1, pool = served_model
    X, y = make_blobs(n=120, sep=1.2, noise=1.3, seed=3)
    model2 = SVC(C=1.0, sigma_sq=8.0).fit(X, y).model_

    shared = ResultCache(512)
    first = serve_requests(
        model1, requests_60, None,
        policy=BatchPolicy(max_batch=16), config=RunConfig(nprocs=1),
        cache=shared,
    )
    assert same_bits(first.scores, model1.decision_function(requests_60))

    second = serve_requests(
        model2, requests_60, None,
        policy=BatchPolicy(max_batch=16), config=RunConfig(nprocs=1),
        cache=shared,
    )
    # every row was already cached under model1's namespace; a stale hit
    # would replay model1's values
    assert second.stats.n_cache_hits == 0
    assert same_bits(second.scores, model2.decision_function(requests_60))
    assert not np.array_equal(second.scores, first.scores)

    # control: re-serving model1 against the warm shared cache hits fully
    again = serve_requests(
        model1, requests_60, None,
        policy=BatchPolicy(max_batch=16), config=RunConfig(nprocs=1),
        cache=shared,
    )
    assert again.stats.n_cache_hits == 60
    assert same_bits(again.scores, first.scores)


# -------------------------------------------------------------------------
# one key build per admitted request
# -------------------------------------------------------------------------

def _count_request_keys(monkeypatch):
    """Count ``request_key`` calls through the module-level names the
    serving entry points look up at call time."""
    from repro.serve import fleet, server

    calls = []

    def spy(X, row):
        calls.append(row)
        return request_key(X, row)

    monkeypatch.setattr(server, "request_key", spy)
    monkeypatch.setattr(fleet, "request_key", spy)
    return calls


@pytest.mark.parametrize("entry", ["serve_requests", "serve_fleet"])
@pytest.mark.parametrize("capacity", [0, 16])
def test_one_request_key_per_admitted_request(
    served_model, requests_60, monkeypatch, entry, capacity
):
    """A request's cache key is built once, at admission, and reused
    when its score is stored; without a cache none is built."""
    from repro.serve import serve_fleet

    model, _ = served_model
    calls = _count_request_keys(monkeypatch)
    arrivals = np.arange(60) * 150e-6
    run = serve_requests if entry == "serve_requests" else serve_fleet
    res = run(
        model, requests_60, arrivals,
        policy=BatchPolicy(max_batch=8, max_delay=200e-6),
        config=RunConfig(nprocs=2), cache_entries=capacity,
    )
    if capacity == 0:
        assert calls == []
        return
    assert sorted(calls) == list(range(60))  # every request is admitted
    assert res.stats.cache["hits"] > 0  # the keys were used for puts too
