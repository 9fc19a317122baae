"""Gradient reconstruction (Algorithm 3) in isolation."""

import numpy as np
import pytest

from repro.core.reconstruction import (
    TAG_RING,
    _ring_recv,
    gradient_reconstruction,
)
from repro.core.state import make_blocks
from repro.core.trace import RankTrace
from repro.kernels import RBFKernel
from repro.mpi import (
    CorruptMessageError,
    MessageLostError,
    RingRecoveryError,
    run_spmd,
)
from repro.sparse import BlockPartition

from ..conftest import dense_kernel_matrix, make_blobs

KERNEL = RBFKernel(0.5)


def _setup(n=40, p=3, seed=0, shrink_frac=0.5, alpha_frac=0.4):
    """Blocks with random alphas and a random shrunk subset; returns the
    blocks plus the exact global gradient."""
    X, y = make_blobs(n=n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    alpha = np.where(rng.random(n) < alpha_frac, rng.random(n) * 5.0, 0.0)
    K = dense_kernel_matrix(X, KERNEL)
    gamma_exact = K @ (alpha * y) - y

    part = BlockPartition(n, p)
    blocks = make_blocks(X, y, part)
    for r, blk in enumerate(blocks):
        lo, hi = part.bounds(r)
        blk.alpha[:] = alpha[lo:hi]
        blk.gamma[:] = gamma_exact[lo:hi]
        shrunk = rng.random(hi - lo) < shrink_frac
        blk.active[:] = ~shrunk
        # stale gradients for shrunk samples: garbage values
        blk.gamma[shrunk] = 999.0
    return blocks, gamma_exact, part


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_restores_exact_gradients(p):
    blocks, gamma_exact, part = _setup(n=41, p=p)

    def prog(comm):
        blk = blocks[comm.rank]
        trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        gradient_reconstruction(comm, blk, KERNEL, 0, trace)
        return blk.gamma.copy(), blk.active.copy(), trace

    res = run_spmd(prog, p)
    gamma = np.concatenate([g for g, _, _ in res.results])
    assert np.allclose(gamma, gamma_exact, atol=1e-9)
    for _, active, _ in res.results:
        assert active.all()  # everyone re-activated


def test_no_shrunk_samples_is_noop_on_gamma():
    blocks, gamma_exact, part = _setup(n=30, p=2, shrink_frac=0.0)

    def prog(comm):
        blk = blocks[comm.rank]
        before = blk.gamma.copy()
        trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        gradient_reconstruction(comm, blk, KERNEL, 0, trace)
        return np.array_equal(blk.gamma, before), trace

    res = run_spmd(prog, 2)
    assert all(ok for ok, _ in res.results)


def test_all_shrunk_everywhere():
    blocks, gamma_exact, part = _setup(n=24, p=3, shrink_frac=1.1)

    def prog(comm):
        blk = blocks[comm.rank]
        trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        gradient_reconstruction(comm, blk, KERNEL, 7, trace)
        return blk.gamma.copy()

    res = run_spmd(prog, 3)
    gamma = np.concatenate(res.results)
    assert np.allclose(gamma, gamma_exact, atol=1e-9)


def test_zero_alpha_gives_minus_y():
    blocks, _, part = _setup(n=20, p=2, alpha_frac=0.0, shrink_frac=0.6)

    def prog(comm):
        blk = blocks[comm.rank]
        trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        gradient_reconstruction(comm, blk, KERNEL, 0, trace)
        return blk.gamma.copy(), blk.y.copy()

    for gamma, y in run_spmd(prog, 2).results:
        assert np.allclose(gamma, -y)


def test_trace_event_recorded():
    blocks, _, _ = _setup(n=30, p=2)

    def prog(comm):
        blk = blocks[comm.rank]
        trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        gradient_reconstruction(comm, blk, KERNEL, 42, trace)
        return trace

    for trace in run_spmd(prog, 2).results:
        assert len(trace.recon_events) == 1
        ev = trace.recon_events[0]
        assert ev.iteration == 42
        assert ev.kernel_evals >= 0


def test_ring_moves_only_contributing_samples():
    """Bytes on the wire scale with |alpha > 0|, not N (§IV-B2)."""
    few_blocks, _, _ = _setup(n=60, p=3, alpha_frac=0.1, seed=2)
    many_blocks, _, _ = _setup(n=60, p=3, alpha_frac=0.9, seed=2)

    def run(blocks):
        def prog(comm):
            blk = blocks[comm.rank]
            trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
            gradient_reconstruction(comm, blk, KERNEL, 0, trace)
            return trace.recon_events[0].bytes_sent

        return sum(run_spmd(prog, 3).results)

    assert run(few_blocks) < run(many_blocks)


def test_deterministic_mode_is_p_invariant():
    """Buffered fold: reconstructed gammas are bitwise identical
    regardless of the process count."""
    results = {}
    for p in (1, 2, 5):
        blocks, _, part = _setup(n=40, p=p, seed=11)

        def prog(comm):
            blk = blocks[comm.rank]
            trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
            gradient_reconstruction(comm, blk, KERNEL, 0, trace)
            return blk.gamma.copy()

        results[p] = np.concatenate(run_spmd(prog, p).results)
    assert np.array_equal(results[1], results[2])
    assert np.array_equal(results[1], results[5])


class _FailingComm:
    """A rank-1 communicator whose ``recv`` raises or returns ``outcome``."""

    rank = 1

    def __init__(self, outcome):
        self.outcome = outcome

    def recv(self, source, tag):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize(
    "outcome",
    [
        CorruptMessageError("frame CRC mismatch"),
        MessageLostError(1, 0, TAG_RING + 2, 3),
        (b"blob", np.ones(1)),  # a malformed chunk: not a 3-tuple
    ],
    ids=["corrupt", "lost", "malformed"],
)
def test_ring_recv_failure_names_rank_tag_and_step(outcome):
    """A chunk ``recv`` could not deliver intact becomes a
    RingRecoveryError naming the rank, tag and ring step, with the
    receive's own error as its cause."""
    with pytest.raises(RingRecoveryError) as ei:
        _ring_recv(_FailingComm(outcome), 0, TAG_RING + 2, 2)
    err = ei.value
    assert (err.rank, err.tag, err.step) == (1, TAG_RING + 2, 2)
    assert isinstance(err.cause, (CorruptMessageError, MessageLostError))
    assert err.__cause__ is err.cause
