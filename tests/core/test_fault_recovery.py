"""Fault matrix for the solver, plus the edge-case bugfix regressions.

The tentpole invariant, end to end: a *fit* that completes under fault
injection is bitwise identical — α, β and virtual time — to the
fault-free fit at the same process count.  Unrecoverable schedules must
fail with a structured :class:`SpmdJobError`, never a watchdog hang.

Also here: the satellite regressions — zero-support ranks in the
reconstruction ring, ``nprocs > n_samples`` partitions, the
shrink-to-empty guard, and the final-β NaN guard.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core.parallel import RankSolver
from repro.core.reconstruction import (
    TAG_RING,
    _apply_chunk,
    _pack_contrib,
    _verify_chunk,
    gradient_reconstruction,
)
from repro.core.shrinking import get_heuristic
from repro.core.state import LocalBlock
from repro.core.trace import RankTrace
from repro.core.wss import Violators
from repro.kernels import RBFKernel
from repro.mpi import frames, run_spmd
from repro.mpi.errors import (
    CorruptMessageError,
    InjectedFault,
    MessageLostError,
    RingRecoveryError,
    SpmdJobError,
)
from repro.mpi.faults import Fault, FaultPlan, RetryPolicy
from repro.sparse.partition import BlockPartition

from ..conftest import make_blobs

PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)
FAST = RetryPolicy(timeout=0.05, backoff=1.5, max_retries=3)


@pytest.fixture(scope="module")
def problem():
    # overlapping blobs: shrinking fires and reconstruction rings run
    return make_blobs(n=90, sep=1.2, noise=1.3, seed=3)


@pytest.fixture(scope="module")
def reference(problem):
    X, y = problem
    return {
        p: fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=p)
        )
        for p in (1, 2, 4)
    }


def _fit_with(problem, p, faults):
    X, y = problem
    return fit_parallel(
        X, y, PARAMS,
        config=RunConfig(
            heuristic="multi5pc", nprocs=p, faults=faults,
            deadlock_timeout=20.0,
        ),
    )


def _assert_identical(fr, ref):
    assert np.array_equal(fr.alpha, ref.alpha)
    assert fr.model.beta == ref.model.beta
    assert fr.iterations == ref.iterations
    assert fr.vtime == ref.vtime


@pytest.mark.faults
class TestFaultMatrix:
    """Each fault kind × {reconstruction ring, allreduce} × p."""

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("kind", ["delay", "drop", "dup", "corrupt"])
    def test_ring_faults_recovered_bitwise(self, problem, reference, kind, p):
        fault = Fault(
            kind, tag=TAG_RING, nth=1,
            seconds=0.05 if kind == "delay" else 0.0,
        )
        fr = _fit_with(problem, p, FaultPlan((fault,), seed=7, retry=FAST))
        stats = fr.spmd.fault_stats["stats"]
        counter = {"delay": "delayed", "drop": "dropped",
                   "dup": "duplicated", "corrupt": "corrupted"}[kind]
        assert stats[counter] >= 1
        ref = reference[p]
        assert np.array_equal(fr.alpha, ref.alpha)
        assert fr.model.beta == ref.model.beta
        if kind != "delay":  # delay legitimately shifts virtual time
            assert fr.vtime == ref.vtime

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("kind", ["delay", "drop", "dup"])
    def test_collective_faults_recovered_bitwise(
        self, problem, reference, kind, p
    ):
        # wildcard tag + dest filter: lands on allreduce election traffic
        fault = Fault(
            kind, dest=p - 1, nth=3,
            seconds=0.05 if kind == "delay" else 0.0,
        )
        fr = _fit_with(problem, p, FaultPlan((fault,), seed=11, retry=FAST))
        ref = reference[p]
        assert np.array_equal(fr.alpha, ref.alpha)
        assert fr.model.beta == ref.model.beta
        if kind != "delay":
            assert fr.vtime == ref.vtime

    def test_rank_stall_recovered_bitwise(self, problem, reference):
        plan = FaultPlan(
            (Fault("stall", rank=1, after=2, seconds=0.2),),
            seed=1, retry=RetryPolicy(timeout=0.5, max_retries=4),
        )
        fr = _fit_with(problem, 2, plan)
        assert fr.spmd.fault_stats["stats"]["stalled"] == 1
        _assert_identical(fr, reference[2])

    def test_rank_kill_structured_error(self, problem):
        plan = FaultPlan(
            (Fault("kill", rank=1, after=5),), seed=1, retry=FAST
        )
        with pytest.raises(SpmdJobError) as ei:
            _fit_with(problem, 2, plan)
        assert any(
            isinstance(e, InjectedFault) for e in ei.value.failures.values()
        )

    def test_unrecoverable_ring_loss_structured_error(self, problem):
        # suppress 99 delivery attempts: retry budget exhausts first
        plan = FaultPlan(
            (Fault("drop", tag=TAG_RING, nth=1, count=99),),
            seed=1, retry=FAST,
        )
        with pytest.raises(SpmdJobError) as ei:
            _fit_with(problem, 2, plan)
        assert any(
            isinstance(e, (RingRecoveryError, MessageLostError))
            for e in ei.value.failures.values()
        )

    def test_same_plan_same_fit(self, problem):
        plan = "seed=13;retry:timeout=0.05,max=3;drop:tag=3,nth=1;dup:nth=7"
        a = _fit_with(problem, 2, plan)
        b = _fit_with(problem, 2, plan)
        assert a.spmd.fault_stats["schedule"] == b.spmd.fault_stats["schedule"]
        assert np.array_equal(a.alpha, b.alpha)


class TestRingChunkIntegrity:
    def _block(self, n=10, seed=0, with_support=True):
        X, y = make_blobs(n=n, seed=seed)
        blk = LocalBlock(X, y, 0)
        if with_support:
            blk.alpha[: n // 2] = 1.0
        return blk

    def test_pack_carries_valid_crc(self):
        # frames wire (default): bare 3-tuple, integrity lives in the
        # typed frame's CRC; pickle wire: chunk-level CRC as 4th field
        chunk = _pack_contrib(self._block())
        assert len(chunk) == 3
        _verify_chunk(chunk, source=0)  # must not raise
        legacy = _pack_contrib(self._block(), wire="pickle")
        assert len(legacy) == 4
        _verify_chunk(legacy, source=0)

    def test_tampered_chunk_detected(self):
        blob, coefs, norms, crc = _pack_contrib(self._block(), wire="pickle")
        bad = bytearray(blob)
        bad[len(bad) // 2] ^= 0xFF
        with pytest.raises(CorruptMessageError, match="CRC32"):
            _verify_chunk((bytes(bad), coefs, norms, crc), source=0)
        with pytest.raises(CorruptMessageError, match="malformed"):
            _verify_chunk((blob, coefs, norms, crc, None), source=0)
        # a framed chunk is protected by the frame CRC: a flipped wire
        # byte fails decode before _verify_chunk ever sees the tuple
        frame = bytearray(frames.encode((blob, coefs, norms)))
        frame[len(frame) // 2] ^= 0xFF
        with pytest.raises(CorruptMessageError):
            frames.decode(bytes(frame))

    @pytest.mark.parametrize("fold", ["blocked", "rowwise"])
    def test_empty_chunk_round_trip(self, fold):
        """A zero-support rank's payload folds as an exact no-op."""
        empty = _pack_contrib(self._block(with_support=False))
        assert empty[1].size == 0 and empty[2].size == 0
        _verify_chunk(empty, source=0)
        tgt = self._block(seed=1)
        idx = np.arange(4)
        accum = np.full(4, 0.5)
        evals = _apply_chunk(
            PARAMS.kernel, tgt.X.take_rows(idx), tgt.norms[idx],
            accum, empty, fold,
        )
        assert evals == 0
        assert np.array_equal(accum, np.full(4, 0.5))

    @pytest.mark.parametrize("fold", ["blocked", "rowwise"])
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_zero_support_rank_in_ring(self, fold, deterministic):
        """p=2 ring where rank 1 contributes nothing: exact γ plus exact
        evals/bytes accounting on both sides."""
        X, y = make_blobs(n=12, seed=2)
        part = BlockPartition(12, 2)

        def entry(comm):
            lo, hi = part.bounds(comm.rank)
            blk = LocalBlock(X.take_rows(np.arange(lo, hi)), y[lo:hi], lo)
            if comm.rank == 0:
                blk.alpha[:] = 0.5  # all support on rank 0
            blk.active[:] = False  # everything stale -> full reconstruction
            blk.invalidate_active()
            trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
            gradient_reconstruction(
                comm, blk, PARAMS.kernel, 0, trace,
                deterministic=deterministic, fold=fold,
            )
            return blk.gamma.copy(), trace.recon_events[0]

        res = run_spmd(entry, 2)
        gamma = np.concatenate([r[0] for r in res.results])
        ev0, ev1 = (r[1] for r in res.results)

        # dense reference: γ_i = Σ_j α_j y_j K(x_j, x_i) − y_i
        coef = np.where(np.arange(12) < part.bounds(0)[1], 0.5, 0.0) * y
        K = np.array([
            [float(PARAMS.kernel.pair(
                (X.row(i)[0], X.row(i)[1], X.row_norms_sq()[i]),
                (X.row(j)[0], X.row(j)[1], X.row_norms_sq()[j]),
            )) for j in range(12)] for i in range(12)
        ])
        np.testing.assert_allclose(gamma, K @ coef - y, rtol=1e-12)

        n0 = part.bounds(0)[1]
        n1 = 12 - n0
        # every kernel evaluation pairs a local shrunk row with one of
        # rank 0's contributing rows; rank 1 contributes zero rows
        assert ev0.kernel_evals == n0 * n0
        assert ev1.kernel_evals == n1 * n0
        assert ev0.n_contrib_local == n0 and ev1.n_contrib_local == 0
        # p=2: one ring step; each rank ships exactly its own chunk
        chunk0 = _pack_contrib_of(X, y, part, 0, 0.5)
        chunk1 = _pack_contrib_of(X, y, part, 1, 0.0)
        assert ev0.bytes_sent == _chunk_nbytes(chunk0)
        assert ev1.bytes_sent == _chunk_nbytes(chunk1)


def _pack_contrib_of(X, y, part, rank, alpha_val):
    lo, hi = part.bounds(rank)
    blk = LocalBlock(X.take_rows(np.arange(lo, hi)), y[lo:hi], lo)
    blk.alpha[:] = alpha_val
    return _pack_contrib(blk)


def _chunk_nbytes(chunk):
    # exact wire size of the framed chunk (the default ring wire)
    return frames.frame_nbytes(chunk)


class TestPartitionEdgeCases:
    def test_more_ranks_than_samples_bitwise(self):
        X, y = make_blobs(n=6, seed=4)
        ref = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=1))
        for p in (7, 9):
            fr = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=p))
            assert np.array_equal(fr.alpha, ref.alpha)
            assert fr.iterations == ref.iterations

    def test_empty_rank_with_shrinking_heuristic(self):
        X, y = make_blobs(n=5, seed=4)
        ref = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="single5pc", nprocs=1)
        )
        fr = fit_parallel(
            X, y, PARAMS, config=RunConfig(heuristic="single5pc", nprocs=8)
        )
        assert np.array_equal(fr.alpha, ref.alpha)


class TestShrinkGuards:
    def _solver_with_all_shrinkable(self, comm, n=8):
        X, y = make_blobs(n=n, seed=6)
        y = np.ones(n)  # all positive, all α=0 => every sample in I1
        blk = LocalBlock(X, y, 0)
        part = BlockPartition(n, 1)
        solver = RankSolver(
            comm, blk, part, PARAMS, get_heuristic("single5pc")
        )
        # every γ above β_low makes the whole of I1 shrinkable (Eq. 9)
        blk.gamma[:] = 1.0
        viol = Violators(
            beta_up=2.0, i_up=0, gamma_up=2.0,
            beta_low=0.0, i_low=1, gamma_low=0.0,
        )
        return solver, blk, viol

    def test_shrink_to_global_empty_is_skipped(self):
        def entry(comm):
            solver, blk, viol = self._solver_with_all_shrinkable(comm)
            solver._shrink_pass(viol)
            return blk.n_active, solver.trace.shrunk_per_event[-1]

        (n_active, shrunk), = run_spmd(entry, 1).results
        assert n_active == 8  # guard kept the active set
        assert shrunk == 0

    def test_partial_shrink_still_fires(self):
        def entry(comm):
            solver, blk, viol = self._solver_with_all_shrinkable(comm)
            blk.gamma[:3] = -1.0  # three samples stay unshrinkable
            solver._shrink_pass(viol)
            return blk.n_active, solver.trace.shrunk_per_event[-1]

        (n_active, shrunk), = run_spmd(entry, 1).results
        assert n_active == 3
        assert shrunk == 5

    def test_aggressive_threshold_converges(self):
        """A threshold that fires every iteration must still terminate
        (the reconstruct loop this guards against never converged)."""
        from repro.core.shrinking import Heuristic

        X, y = make_blobs(n=40, sep=1.0, noise=1.4, seed=9)
        heur = Heuristic(
            name="everystep", threshold_kind="random", threshold_value=1,
            reconstruction="multi", klass="safe", subsequent="initial",
        )
        params = SVMParams(
            C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=50_000
        )
        ref = fit_parallel(
            X, y, params, config=RunConfig(heuristic="original", nprocs=1)
        )
        fr = fit_parallel(
            X, y, params, config=RunConfig(heuristic=heur, nprocs=2)
        )
        assert np.array_equal(fr.alpha, ref.alpha)


class TestFinalBetaGuard:
    def test_no_free_svs_one_sided_bounds(self):
        def entry(comm):
            X, y = make_blobs(n=4, seed=1)
            blk = LocalBlock(X, np.ones(4), 0)
            part = BlockPartition(4, 1)
            solver = RankSolver(
                comm, blk, part, PARAMS, get_heuristic("original")
            )
            viol = Violators(
                beta_up=np.inf, i_up=-1, gamma_up=np.inf,
                beta_low=-np.inf, i_low=-1, gamma_low=-np.inf,
            )
            return solver._final_beta(viol)

        (beta,) = run_spmd(entry, 1).results
        assert beta == 0.0  # used to be NaN (inf + -inf)

    def test_free_svs_still_averaged(self):
        def entry(comm):
            X, y = make_blobs(n=4, seed=1)
            blk = LocalBlock(X, np.ones(4), 0)
            blk.alpha[:] = 5.0  # strictly inside (0, C)
            blk.gamma[:] = 2.0
            part = BlockPartition(4, 1)
            solver = RankSolver(
                comm, blk, part, PARAMS, get_heuristic("original")
            )
            viol = Violators(
                beta_up=0.0, i_up=0, gamma_up=0.0,
                beta_low=0.0, i_low=1, gamma_low=0.0,
            )
            return solver._final_beta(viol)

        (beta,) = run_spmd(entry, 1).results
        assert beta == 2.0
