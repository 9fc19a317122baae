"""Kernel reuse inside the SMO loop.

A shrink only removes rows from the active set, so each resident kernel
column of the ending compaction is compacted to the surviving rows
instead of being produced again; a reconstruction grows the active set
and releases every column.  The pair kernel K(x_up, x_low) is memoized
per ordered pair, at most ``PAIR_MEMO_MAX`` of them.  Both only save
host time on bitwise-identical recomputations, which is what these
tests pin: after every shrink and every reconstruction, each column a
rank still holds equals a fresh ``kernel.block`` against the current
packed rows, and on every iteration the memoized pair kernel equals a
fresh ``kernel.pair``, bit for bit.
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


@pytest.fixture(scope="module")
def problem():
    return make_blobs(n=120, sep=1.2, noise=1.3, seed=3)


def _params(kernel: str) -> SVMParams:
    k, C = KERNELS[kernel]
    return SVMParams(C=C, kernel=k, eps=1e-3, max_iter=200_000)


def _fit(X, y, params, heur, p, cache_mb=0.0):
    return fit_parallel(
        X, y, params,
        config=RunConfig(heuristic=heur, nprocs=p, kernel_cache_mb=cache_mb),
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
    # the budgeted column cache keeps dropping its columns at a shrink
    cached = _fit(X, y, params, "multi5pc", 2, cache_mb=2.0).trace
    assert cached.columns_carried == 0
    assert cached.columns_produced == cached.cache_misses
