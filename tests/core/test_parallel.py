"""Distributed engine (Algorithms 2/4/5): determinism, accuracy, shrinking."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import (
    HEURISTICS,
    ConvergenceError,
    SVMParams,
    fit_parallel,
    solve_sequential,
)
from repro.core.shrinking import Heuristic
from repro.kernels import RBFKernel
from repro.mpi import SpmdJobError

from ..conftest import check_kkt, dense_kernel_matrix, make_blobs

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)


@pytest.fixture(scope="module")
def problem():
    return make_blobs(n=140, sep=1.6, noise=1.2, seed=5)


@pytest.fixture(scope="module")
def reference(problem):
    X, y = problem
    return solve_sequential(X, y, PARAMS)


class TestOriginal:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_bitwise_identical_across_p(self, problem, reference, p):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=p)
        )
        assert fr.iterations == reference.iterations
        assert np.array_equal(fr.alpha, reference.alpha)

    def test_kkt(self, problem):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=4)
        )
        check_kkt(X, y, fr.alpha, fr.model.beta, PARAMS.kernel,
                  PARAMS.C, PARAMS.eps)

    def test_no_shrinking_happens(self, problem):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=2)
        )
        assert fr.trace.total_shrunk() == 0
        assert fr.trace.n_reconstructions() == 0


class TestShrinkingAccuracy:
    """Contribution 2: shrinking must not change the solution."""

    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    def test_every_heuristic_matches_reference(self, problem, reference, heuristic):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic=heuristic, nprocs=2)
        )
        # same eps-optimal solution: alphas agree to tolerance scale
        assert np.allclose(fr.alpha, reference.alpha, atol=0.05 * PARAMS.C)
        assert abs(fr.model.beta - reference.beta) < 0.05
        check_kkt(X, y, fr.alpha, fr.model.beta, PARAMS.kernel,
                  PARAMS.C, PARAMS.eps)

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_aggressive_shrinking_across_p(self, problem, p):
        X, y = problem
        a = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi2", nprocs=p)
        )
        b = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi2", nprocs=1)
        )
        assert a.iterations == b.iterations
        assert np.array_equal(a.alpha, b.alpha)

    def test_gradients_exact_after_solve(self, problem):
        """Reconstruction restores Eq. (1) exactly for every sample."""
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=3)
        )
        K = dense_kernel_matrix(X, PARAMS.kernel)
        assert np.allclose(K @ (fr.alpha * y) - y, fr.gamma, atol=1e-8)


class TestShrinkingBehaviour:
    def test_aggressive_shrinks_samples(self, problem):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi2", nprocs=2)
        )
        assert fr.trace.total_shrunk() > 0
        assert fr.trace.n_reconstructions() >= 1

    def test_active_set_decreases(self, problem):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi2", nprocs=2)
        )
        ac = fr.trace.active_counts
        assert ac.min() < ac.max() == X.shape[0]

    def test_threshold_beyond_convergence_equals_original(self, problem):
        """The paper's MNIST observation: a late threshold never fires."""
        X, y = problem
        orig = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=2)
        )
        late = Heuristic("late", "random", 10**9, "single", "conservative")
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic=late, nprocs=2)
        )
        assert fr.trace.total_shrunk() == 0
        assert fr.iterations == orig.iterations
        assert np.array_equal(fr.alpha, orig.alpha)

    def test_single_reconstruction_at_most_once(self, problem):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="single2", nprocs=2)
        )
        assert fr.trace.n_reconstructions() <= 1

    def test_shrinking_reduces_kernel_evals(self, problem):
        X, y = problem
        orig = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=1)
        )
        shr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi2", nprocs=1)
        )
        assert shr.trace.iter_kernel_evals < orig.trace.iter_kernel_evals

    def test_subsequent_policy_initial(self, problem):
        X, y = problem
        heur = HEURISTICS["multi5pc"].with_subsequent("initial")
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic=heur, nprocs=2)
        )
        ref = solve_sequential(X, y, PARAMS)
        assert np.allclose(fr.alpha, ref.alpha, atol=0.05 * PARAMS.C)
        # initial policy fires more often than active_set
        fr2 = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=2)
        )
        assert len(fr.trace.shrink_iters) >= len(fr2.trace.shrink_iters)


class TestDriverValidation:
    def test_bad_labels(self, problem):
        X, _ = problem
        with pytest.raises(ValueError):
            fit_parallel(X, np.zeros(X.shape[0]), PARAMS)

    def test_label_count_mismatch(self, problem):
        X, y = problem
        with pytest.raises(ValueError):
            fit_parallel(X, y[:-1], PARAMS)

    def test_more_procs_than_samples(self):
        # over-provisioned jobs are allowed: surplus ranks own zero rows
        X, y = make_blobs(n=10)
        ref = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=1))
        res = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=11))
        assert np.array_equal(ref.alpha, res.alpha)
        # β comes from an allreduce whose summation tree depends on p:
        # equal to rounding, not bitwise
        assert res.model.beta == pytest.approx(ref.model.beta)

    def test_nonpositive_procs(self, problem):
        X, y = problem
        with pytest.raises(ValueError):
            fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=0))

    def test_max_iter_propagates(self, problem):
        X, y = problem
        params = SVMParams(C=10.0, kernel=RBFKernel(0.5), max_iter=3)
        with pytest.raises(SpmdJobError) as ei:
            fit_parallel(X, y, params, config=RunConfig(nprocs=2))
        assert any(
            isinstance(e, ConvergenceError) for e in ei.value.failures.values()
        )

    def test_dense_input_accepted(self):
        rng = np.random.default_rng(0)
        Xd = np.vstack([rng.normal(2, 1, (20, 2)), rng.normal(-2, 1, (20, 2))])
        y = np.r_[np.ones(20), -np.ones(20)]
        fr = fit_parallel(Xd, y, PARAMS, config=RunConfig(nprocs=2))
        assert fr.model.n_sv > 0


class TestStats:
    def test_fit_stats_populated(self, problem):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=3)
        )
        s = fr.stats
        assert s.nprocs == 3
        assert s.iterations == fr.iterations > 0
        assert s.n_sv == fr.model.n_sv
        assert s.vtime > 0
        assert s.wall_time > 0
        assert s.kernel_evals > 0
        assert s.bytes_sent > 0
        assert s.messages > 0

    def test_vtime_scales_down_with_p_for_compute_bound(self):
        """More ranks -> less modeled time while compute dominates."""
        X, y = make_blobs(n=500, d=40, sep=2.0, noise=1.0, seed=6)
        t1 = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=1)
        ).vtime
        t4 = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="original", nprocs=4)
        ).vtime
        assert t4 < t1

    def test_trace_merge_consistency(self, problem):
        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=3)
        )
        tr = fr.trace
        assert tr.nprocs == 3
        assert tr.iterations == fr.iterations
        assert tr.active_counts.shape == (fr.iterations,)
        assert tr.active_counts.max() <= X.shape[0]


class TestHotPathShape:
    """The per-iteration call structure perfbench's per-layer spans
    attribute host time by (``core.select``, ``core.fetch_pair``,
    ``core.iterate``, ``mpi.collective``)."""

    def test_calls_per_iteration(self, problem, monkeypatch):
        from collections import Counter

        from repro.core.parallel import PackedRankSolver
        from repro.mpi.communicator import Comm

        counts = Counter()
        per_select = []  # allreduce_buffer calls inside each select

        def spy(cls, name, rank_of):
            original = getattr(cls, name)

            def wrapped(self, *args, **kwargs):
                counts[name, rank_of(self)] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapped)

        def solver_rank(solver):
            return solver.comm.rank

        for name in ("iterate_once", "fetch_pair", "reconstruct"):
            spy(PackedRankSolver, name, solver_rank)
        spy(Comm, "allreduce_buffer", lambda comm: comm.rank)
        select = PackedRankSolver.select

        def select_spy(self):
            rank = self.comm.rank
            before = counts["allreduce_buffer", rank]
            out = select(self)
            counts["select", rank] += 1
            per_select.append(counts["allreduce_buffer", rank] - before)
            return out

        monkeypatch.setattr(PackedRankSolver, "select", select_spy)

        X, y = problem
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=2)
        )
        iters = fr.iterations
        recon = counts["reconstruct", 0]
        assert recon >= 1 and fr.trace.shrink_iters  # both paths ran
        for rank in (0, 1):
            assert counts["iterate_once", rank] == iters
            assert counts["fetch_pair", rank] == iters
            assert counts["reconstruct", rank] == recon
            assert counts["select", rank] == iters + 1 + recon
        # one fused election allreduce per mvp selection
        assert per_select == [1] * len(per_select)
