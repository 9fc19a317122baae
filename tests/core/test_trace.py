"""SolveTrace: merging, analysis helpers, persistence."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core.trace import RankTrace, ReconEvent, SolveTrace
from repro.kernels import RBFKernel

from ..conftest import make_blobs


def make_rank_trace(rank, active, gaps=(), shrinks=(), recons=()):
    t = RankTrace(rank=rank, n_local=max(active, default=0))
    t.active_counts = list(active)
    t.gap_history = list(gaps)
    for it, n in shrinks:
        t.shrink_iters.append(it)
        t.shrunk_per_event.append(n)
    for ev in recons:
        t.recon_events.append(ev)
    return t


class TestMerge:
    def test_active_counts_summed(self):
        a = make_rank_trace(0, [10, 8, 8])
        b = make_rank_trace(1, [10, 10, 9])
        tr = SolveTrace.merge([a, b], n_samples=20, n_features=2, avg_nnz=2.0)
        assert tr.active_counts.tolist() == [20, 18, 17]
        assert tr.iterations == 3
        assert tr.nprocs == 2

    def test_shrink_events_aggregated(self):
        a = make_rank_trace(0, [5], shrinks=[(3, 2)])
        b = make_rank_trace(1, [5], shrinks=[(3, 1), (7, 4)])
        tr = SolveTrace.merge([a, b], 10, 2, 2.0)
        assert tr.shrink_iters == [3, 7]
        assert tr.shrunk_per_event == [3, 4]
        assert tr.total_shrunk() == 7

    def test_recon_rounds_deduplicated_by_iteration(self):
        ev = lambda it: ReconEvent(it, 1, 1, 10, 5)
        a = make_rank_trace(0, [5], recons=[ev(4), ev(9)])
        b = make_rank_trace(1, [5], recons=[ev(4)])
        tr = SolveTrace.merge([a, b], 10, 2, 2.0)
        assert tr.n_reconstructions() == 2
        assert tr.recon_kernel_evals() == 15
        assert tr.recon_bytes() == 30

    def test_reuse_counters_summed(self):
        a = make_rank_trace(0, [5])
        b = make_rank_trace(1, [5])
        a.columns_produced, a.columns_carried, a.pair_memo_hits = 4, 3, 2
        b.columns_produced, b.columns_carried, b.pair_memo_hits = 5, 0, 2
        tr = SolveTrace.merge([a, b], 10, 2, 2.0)
        assert tr.columns_produced == 9
        assert tr.columns_carried == 3
        assert tr.pair_memo_hits == 4

    def test_gap_history_from_rank0(self):
        a = make_rank_trace(0, [5, 5], gaps=[2.0, 1.0])
        b = make_rank_trace(1, [5, 5])
        tr = SolveTrace.merge([a, b], 10, 2, 2.0)
        assert tr.gap_history.tolist() == [2.0, 1.0]


class TestAnalysis:
    def test_active_fraction(self):
        tr = SolveTrace.merge([make_rank_trace(0, [10, 5])], 10, 2, 2.0)
        assert tr.active_fraction().tolist() == [1.0, 0.5]
        assert tr.fraction_of_iters_below(0.6) == 0.5
        assert tr.fraction_of_iters_below(1.0) == 1.0

    def test_empty_trace(self):
        tr = SolveTrace.merge([make_rank_trace(0, [])], 0, 2, 2.0)
        assert tr.fraction_of_iters_below(0.5) == 0.0
        assert tr.active_fraction().size == 0


class TestPersistence:
    def test_roundtrip_from_real_solve(self, tmp_path):
        X, y = make_blobs(n=60, sep=1.5, noise=1.2, seed=17)
        fr = fit_parallel(
            X, y, SVMParams(C=10.0, kernel=RBFKernel(0.5)),
            config=RunConfig(heuristic="multi2", nprocs=2),
        )
        path = tmp_path / "trace.json"
        fr.trace.save(path)
        loaded = SolveTrace.load(path)
        assert loaded.iterations == fr.trace.iterations
        assert np.array_equal(loaded.active_counts, fr.trace.active_counts)
        assert np.array_equal(loaded.gap_history, fr.trace.gap_history)
        assert loaded.total_shrunk() == fr.trace.total_shrunk()
        assert loaded.n_reconstructions() == fr.trace.n_reconstructions()
        for k in ("columns_produced", "columns_carried", "pair_memo_hits"):
            assert getattr(loaded, k) == getattr(fr.trace, k), k
        assert fr.trace.columns_produced > 0

    def test_trace_without_reuse_counters_loads(self):
        """A trace file written before the kernel-reuse and column-store
        counters loads with zeros for them."""
        X, y = make_blobs(n=60, sep=1.5, noise=1.2, seed=17)
        fr = fit_parallel(
            X, y, SVMParams(C=10.0, kernel=RBFKernel(0.5)),
            config=RunConfig(heuristic="multi2", nprocs=2, kernel_cache_mb=1.0),
        )
        d = fr.trace.to_dict()
        assert d["cache_hits"] > 0 and d["cache_misses"] > 0
        for k in (
            "columns_produced", "columns_carried", "pair_memo_hits",
            "cache_hits", "cache_misses",
        ):
            del d[k]
        old = SolveTrace.from_dict(d)
        assert old.columns_produced == old.columns_carried == 0
        assert old.pair_memo_hits == old.cache_hits == old.cache_misses == 0
        assert old.iterations == fr.trace.iterations

    def test_loaded_trace_projects_identically(self, tmp_path):
        from repro.perfmodel import MachineSpec, project

        X, y = make_blobs(n=60, sep=1.5, noise=1.2, seed=18)
        fr = fit_parallel(
            X, y, SVMParams(C=10.0, kernel=RBFKernel(0.5)),
            config=RunConfig(nprocs=1)
        )
        path = tmp_path / "t.json"
        fr.trace.save(path)
        loaded = SolveTrace.load(path)
        m = MachineSpec.cascade()
        assert project(loaded, m, 64).total == project(fr.trace, m, 64).total


class TestGapHistory:
    def test_gap_monotone_trend_and_convergence(self):
        X, y = make_blobs(n=80, sep=1.6, noise=1.2, seed=19)
        params = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3)
        fr = fit_parallel(
            X, y, params, config=RunConfig(heuristic="original", nprocs=2)
        )
        gaps = fr.trace.gap_history
        assert gaps.shape == (fr.iterations,)
        assert gaps[0] == pytest.approx(2.0)  # initial ±1 gradient gap
        # final recorded gap is near the stopping band
        assert gaps[-1] >= 2 * params.eps  # last *violating* iteration
        assert gaps[-1] < 0.5
        # broadly decreasing: last tenth far below the first tenth
        k = max(1, len(gaps) // 10)
        assert gaps[-k:].mean() < 0.2 * gaps[:k].mean()