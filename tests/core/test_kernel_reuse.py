"""Kernel reuse inside the SMO loop.

Every WSS policy holds its kernel columns in one store, on the resident
samples.  A shrink only removes rows from the active set, so each
column of the ending compaction is compacted to the surviving rows
instead of being produced again; a reconstruction grows the active set
and releases every column.  Under a byte budget the store evicts its
least recently used columns, never one the current request uses.  The
pair kernel K(x_up, x_low) is memoized per ordered pair, at most
``PAIR_MEMO_MAX`` of them.  All of this only saves recomputing
bitwise-identical values, which is what these tests pin: after every
shrink and every reconstruction, each column a rank still holds equals
a fresh ``kernel.block`` against the current packed rows, and on every
iteration the memoized pair kernel equals a fresh ``kernel.pair``, bit
for bit.
"""

import threading

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core import parallel
from repro.core.parallel import PackedRankSolver
from repro.kernels import LinearKernel, RBFKernel
from repro.sparse import CSRMatrix

from ..conftest import make_blobs, same_bits

#: kernel and box per kernel name (the box keeps the linear fit short)
KERNELS = {"rbf": (RBFKernel(0.5), 10.0), "linear": (LinearKernel(), 1.0)}

POLICIES = ("mvp", "second_order", "planning_ahead")

#: bytes of one full-length column of a p=2 rank (60 rows of float64)
COLUMN_BYTES = 60 * 8
#: a budget of four such columns: small enough that the store must evict
TIGHT_MB = 4 * COLUMN_BYTES / 2**20


@pytest.fixture(scope="module")
def problem():
    return make_blobs(n=120, sep=1.2, noise=1.3, seed=3)


def _params(kernel: str) -> SVMParams:
    k, C = KERNELS[kernel]
    return SVMParams(C=C, kernel=k, eps=1e-3, max_iter=200_000)


def _fit(X, y, params, heur, p, cache_mb=0.0, wss="mvp"):
    return fit_parallel(
        X, y, params,
        config=RunConfig(
            heuristic=heur, nprocs=p, kernel_cache_mb=cache_mb, wss=wss,
        ),
    )


def _held(s: PackedRankSolver) -> dict:
    return {g: e for g, e in s._resident.items() if e.kcol is not None}


def _check_held_columns(s: PackedRankSolver) -> None:
    """Every held column is bitwise a fresh column of the packed rows."""
    cs = s.compact
    for g, ent in _held(s).items():
        assert ent.epoch == cs.epoch, g
        row = CSRMatrix.from_rows([(ent.idx, ent.vals)], s.blk.X.shape[1])
        fresh = s.kernel.block(cs.Xa, cs.norms, row, np.array([ent.norm]))
        assert same_bits(ent.kcol, fresh[:, 0]), g


@pytest.fixture
def audit(monkeypatch):
    """Check the reuse invariants from inside every rank of a fit;
    returns the counts of what was checked."""
    seen = {"carried": 0, "recons": 0, "pairs": 0, "memo_peak": 0}
    lock = threading.Lock()
    resolve = PackedRankSolver._resolve_shrink
    reconstruct = PackedRankSolver.reconstruct
    iterate = PackedRankSolver.iterate_once

    def resolve_spy(self, pending, delta, out):
        ending = self.compact.epoch
        before = {g for g, e in _held(self).items() if e.epoch == ending}
        res = resolve(self, pending, delta, out)
        if delta and pending.n_shrunk:
            # every column of the ending compaction is still held
            assert before <= set(_held(self))
            with lock:
                seen["carried"] += len(before)
        _check_held_columns(self)
        return res

    def reconstruct_spy(self):
        viol = reconstruct(self)
        _check_held_columns(self)
        with lock:
            seen["recons"] += 1
        return viol

    def iterate_spy(self, viol, shrink_active):
        iterate(self, viol, shrink_active)
        memo = self._pair_memo
        assert len(memo) <= parallel.PAIR_MEMO_MAX
        up, low = self._resident[viol.i_up], self._resident[viol.i_low]
        fresh = self.kernel.pair(
            (up.idx, up.vals, up.norm), (low.idx, low.vals, low.norm)
        )
        assert same_bits(memo[(viol.i_up, viol.i_low)], fresh)
        for ent in (up, low):
            assert same_bits(ent.k_self, self.kernel.self_value(ent.norm))
        with lock:
            seen["pairs"] += 1
            seen["memo_peak"] = max(seen["memo_peak"], len(memo))

    monkeypatch.setattr(PackedRankSolver, "_resolve_shrink", resolve_spy)
    monkeypatch.setattr(PackedRankSolver, "reconstruct", reconstruct_spy)
    monkeypatch.setattr(PackedRankSolver, "iterate_once", iterate_spy)
    return seen


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("heur", ["multi5pc", "single5pc"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_reused_kernels_are_bitwise_fresh(audit, problem, kernel, heur, p):
    X, y = problem
    fr = _fit(X, y, _params(kernel), heur, p)
    assert audit["pairs"] == p * fr.iterations
    assert audit["recons"] > 0
    assert audit["carried"] == fr.trace.columns_carried > 0
    assert fr.trace.pair_memo_hits > 0


@pytest.mark.parametrize(
    "wss,cache_mb",
    [("second_order", 0.0), ("planning_ahead", 0.0)]
    + [(wss, TIGHT_MB) for wss in POLICIES],
    ids=lambda v: v if isinstance(v, str) else ("4col" if v else "unbounded"),
)
def test_store_is_bitwise_fresh_for_every_policy(audit, problem, wss, cache_mb):
    X, y = problem
    fr = _fit(X, y, _params("rbf"), "multi5pc", 2, cache_mb, wss)
    assert audit["pairs"] == 2 * fr.iterations
    assert audit["recons"] > 0
    assert audit["carried"] == fr.trace.columns_carried > 0


@pytest.mark.parametrize("n_columns", [4, 1])
def test_tight_budget_evicts_and_keeps_the_answer(
    monkeypatch, problem, n_columns
):
    """A budget of a few columns: the store evicts, holds at most the
    budget's bytes apart from the request in flight, and every policy
    reaches the unbudgeted α, β and iteration count bit for bit.  A
    one-column budget is smaller than a two-column request, so the
    request's held column must survive the eviction its missing one
    triggers."""
    X, y = problem
    params = _params("rbf")
    budget = n_columns * COLUMN_BYTES
    seen = {"evicted": 0, "requests": 0}
    lock = threading.Lock()
    columns = PackedRankSolver._columns

    def columns_spy(self, *ents):
        if not self._budget:
            return columns(self, *ents)
        before = set(_held(self))
        cols = columns(self, *ents)
        held = _held(self)
        held_bytes = sum(e.kcol.nbytes for e in held.values())
        assert held_bytes == self._held_bytes
        assert held_bytes <= max(budget, sum(c.nbytes for c in cols))
        assert all(e.gidx in held for e in ents)
        with lock:
            seen["evicted"] += len(before - set(held))
            seen["requests"] += 1
        return cols

    monkeypatch.setattr(PackedRankSolver, "_columns", columns_spy)
    for wss in POLICIES:
        ref = _fit(X, y, params, "multi5pc", 2, 0.0, wss)
        seen["evicted"] = seen["requests"] = 0
        fr = _fit(X, y, params, "multi5pc", 2, budget / 2**20, wss)
        assert seen["evicted"] > 0, wss
        assert seen["requests"] > 0, wss
        assert same_bits(fr.alpha, ref.alpha), wss
        assert fr.model.beta == ref.model.beta, wss
        assert fr.iterations == ref.iterations, wss
        # only the kernel-eval bill moves: fewer columns are produced
        # than the unbudgeted 2·|A| per iteration charges
        assert fr.stats.kernel_evals < ref.stats.kernel_evals, wss
        assert fr.stats.messages == ref.stats.messages, wss


@pytest.mark.parametrize("wss", POLICIES)
def test_hits_and_misses_counted_exactly_under_a_budget(problem, wss):
    X, y = problem
    params = _params("rbf")
    free = _fit(X, y, params, "multi5pc", 2, 0.0, wss).trace
    assert free.cache_hits == free.cache_misses == 0
    for cache_mb in (TIGHT_MB, 2.0):
        tr = _fit(X, y, params, "multi5pc", 2, cache_mb, wss).trace
        assert tr.cache_hits > 0
        assert tr.cache_misses == tr.columns_produced > 0


def test_pair_memo_bound(audit, monkeypatch, problem):
    """A memo that reaches its bound is cleared, and the answer does
    not move."""
    X, y = problem
    ref = _fit(X, y, _params("rbf"), "multi5pc", 2)
    monkeypatch.setattr(parallel, "PAIR_MEMO_MAX", 8)
    audit["memo_peak"] = 0
    fr = _fit(X, y, _params("rbf"), "multi5pc", 2)
    assert audit["memo_peak"] == 8
    assert same_bits(fr.alpha, ref.alpha)
    assert fr.model.beta == ref.model.beta
    assert fr.vtime == ref.vtime
    assert fr.trace.pair_memo_hits < ref.trace.pair_memo_hits


def test_reuse_counters(problem):
    X, y = problem
    params = _params("rbf")
    fr = _fit(X, y, params, "multi5pc", 2)
    tr = fr.trace
    assert tr.columns_carried > 0 and tr.pair_memo_hits > 0
    # the memo hits on the same iterations on every rank
    assert tr.pair_memo_hits % 2 == 0
    # without shrinking nothing is carried; columns are still produced
    orig = _fit(X, y, params, "original", 2).trace
    assert orig.columns_carried == 0
    assert orig.columns_produced > 0 and orig.pair_memo_hits > 0
    # a budgeted store carries columns; a roomy one never evicts, so
    # it holds what the unbounded store holds
    cached = _fit(X, y, params, "multi5pc", 2, cache_mb=2.0).trace
    assert cached.columns_carried == tr.columns_carried
    assert cached.columns_produced == tr.columns_produced
    assert cached.columns_produced == cached.cache_misses
