"""LRU kernel-row cache of the libsvm-style baseline."""

import numpy as np
import pytest

from repro.kernels import KernelRowCache


def row(n=10, fill=1.0):
    return np.full(n, fill)


def test_hit_after_put():
    c = KernelRowCache(10_000)
    c.put(3, row())
    assert np.array_equal(c.get(3), row())
    assert c.hits == 1 and c.misses == 0


def test_miss_counts():
    c = KernelRowCache(10_000)
    assert c.get(1) is None
    assert c.misses == 1
    assert c.hit_rate == 0.0


def test_lru_eviction_order():
    r = row()
    c = KernelRowCache(r.nbytes * 2)
    c.put(1, row(fill=1))
    c.put(2, row(fill=2))
    c.get(1)  # 1 is now most recent
    c.put(3, row(fill=3))  # evicts 2
    assert c.get(2) is None
    assert c.get(1) is not None
    assert c.get(3) is not None
    assert c.evictions == 1


def test_byte_budget_respected():
    r = row()
    c = KernelRowCache(r.nbytes * 3)
    for i in range(10):
        c.put(i, row(fill=i))
    assert c.used_bytes <= c.capacity_bytes
    assert len(c) == 3


def test_oversized_row_not_cached():
    c = KernelRowCache(8)
    c.put(0, row(100))
    assert len(c) == 0
    assert c.get(0) is None


def test_replace_same_key():
    c = KernelRowCache(10_000)
    c.put(1, row(fill=1))
    c.put(1, row(fill=9))
    assert c.get(1)[0] == 9
    assert len(c) == 1


def test_invalidate():
    c = KernelRowCache(10_000)
    c.put(1, row())
    c.invalidate()
    assert len(c) == 0
    assert c.used_bytes == 0
    assert c.get(1) is None


def test_zero_capacity():
    c = KernelRowCache(0)
    c.put(1, row())
    assert c.get(1) is None


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        KernelRowCache(-1)


def test_simulate_misses_is_pure_lookahead():
    c = KernelRowCache(100)
    # 40-byte rows: inserting 3 evicts LRU key 1 -> 1 re-misses
    assert c.simulate_misses([1, 2, 3, 1], 40) == [1, 2, 3, 1]
    # pure lookahead: nothing was actually cached and no counters moved
    assert len(c) == 0 and c.hits == 0 and c.misses == 0


def test_simulate_misses_replays_current_state():
    r = row()  # 80 bytes
    c = KernelRowCache(r.nbytes * 2)
    c.put(1, row(fill=1))
    c.put(2, row(fill=2))
    hits_before, misses_before = c.hits, c.misses
    # 1 and 2 are resident; 3 evicts the shadow's LRU (1)
    assert c.simulate_misses([1, 2, 3, 1], r.nbytes) == [3, 1]
    # the real cache is untouched by the shadow replay
    assert c.get(1) is not None and c.get(2) is not None
    assert c.hits == hits_before + 2 and c.misses == misses_before


def test_stats_dict():
    c = KernelRowCache(10_000)
    c.put(1, row())
    c.get(1)
    c.get(2)
    s = c.stats()
    assert s["entries"] == 1
    assert s["hits"] == 1
    assert s["misses"] == 1
    assert s["hit_rate"] == 0.5

