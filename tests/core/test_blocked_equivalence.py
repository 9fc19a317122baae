"""Blocked kernel evaluation == row-at-a-time evaluation, in bits.

The blocked engine (CSR×CSRᵀ kernel slabs in the reconstruction fold,
batched pair columns, batched cache fills, blocked prediction) claims
bit-for-bit equivalence with the paper's per-sample formulation.  These
tests pin that claim:

- the reconstruction fold produces bitwise-identical gradients and
  identical eval counts in ``blocked`` and ``rowwise`` mode;
- ``fit_parallel`` replays the identical working-set sequence (gap
  history), iteration count, α, β, kernel-eval count and virtual time
  under either fold, for every process count;
- deterministic-mode models are bitwise p-invariant with the blocked
  fold;
- the baseline's batched cache fills reproduce the row-at-a-time rows,
  counters and eviction behavior exactly;
- blocked prediction is invariant to shard layout.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core import reconstruction as recon_mod
from repro.core.libsvm_smo import _RowProvider
from repro.core.reconstruction import gradient_reconstruction
from repro.core.state import make_blocks
from repro.core.trace import RankTrace
from repro.kernels import RBFKernel
from repro.mpi import run_spmd
from repro.sparse import BlockPartition

from ..conftest import make_blobs

KERNEL = RBFKernel(0.5)
PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)


def _shrunk_blocks(n, p, seed=0, alpha_frac=0.5, shrink_frac=0.6):
    X, y = make_blobs(n=n, seed=seed, density=0.7)
    rng = np.random.default_rng(seed + 1)
    alpha = np.where(rng.random(n) < alpha_frac, rng.random(n) * 5.0, 0.0)
    part = BlockPartition(n, p)
    blocks = make_blocks(X, y, part)
    for r, blk in enumerate(blocks):
        lo, hi = part.bounds(r)
        blk.alpha[:] = alpha[lo:hi]
        shrunk = rng.random(hi - lo) < shrink_frac
        blk.active[:] = ~shrunk
        blk.gamma[shrunk] = 999.0
    return blocks


def _reconstruct_all(blocks, p, fold):
    def prog(comm):
        blk = blocks[comm.rank]
        trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        gradient_reconstruction(comm, blk, KERNEL, 0, trace, fold=fold)
        return blk.gamma.copy(), trace.kernel_evals, comm.vtime

    res = run_spmd(prog, p)
    gammas = np.concatenate([g for g, _, _ in res.results])
    evals = [e for _, e, _ in res.results]
    vtimes = [v for _, _, v in res.results]
    return gammas, evals, vtimes


@pytest.mark.parametrize("p", [1, 2, 4])
def test_fold_modes_bitwise_identical(p):
    """Blocked vs row-wise fold: same gradients (in bits), same eval
    counts, same virtual-time charges."""
    blocks_a = _shrunk_blocks(53, p, seed=4)
    blocks_b = _shrunk_blocks(53, p, seed=4)
    g_blocked, e_blocked, v_blocked = _reconstruct_all(blocks_a, p, "blocked")
    g_rowwise, e_rowwise, v_rowwise = _reconstruct_all(blocks_b, p, "rowwise")
    assert np.array_equal(g_blocked, g_rowwise)
    assert e_blocked == e_rowwise
    assert v_blocked == v_rowwise


def test_unknown_fold_mode_rejected():
    blocks = _shrunk_blocks(12, 1, seed=0)

    def prog(comm):
        blk = blocks[comm.rank]
        trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        gradient_reconstruction(comm, blk, KERNEL, 0, trace, fold="nope")

    with pytest.raises(Exception):
        run_spmd(prog, 1)


def _fit(X, y, heuristic, p):
    r = fit_parallel(
        X, y, PARAMS, config=RunConfig(heuristic=heuristic, nprocs=p)
    )
    return {
        "alpha": r.alpha,
        "beta": r.model.beta,
        "iterations": r.iterations,
        "kernel_evals": r.stats.kernel_evals,
        "vtime": r.stats.vtime,
        "gaps": np.asarray(r.trace.gap_history),
    }


@pytest.mark.parametrize("heuristic", ["single5pc", "multi5pc"])
def test_fit_parallel_fold_equivalence(monkeypatch, heuristic):
    """The solver replays the identical working-set sequence whichever
    fold implementation reconstructs the gradients."""
    X, y = make_blobs(n=90, sep=1.4, noise=1.3, seed=7)
    runs = {}
    for fold in ("blocked", "rowwise"):
        monkeypatch.setattr(recon_mod, "DEFAULT_FOLD", fold)
        runs[fold] = _fit(X, y, heuristic, 2)
    a, b = runs["blocked"], runs["rowwise"]
    assert np.array_equal(a["alpha"], b["alpha"])
    assert a["beta"] == b["beta"]
    assert a["iterations"] == b["iterations"]
    assert a["kernel_evals"] == b["kernel_evals"]
    assert a["vtime"] == b["vtime"]
    assert np.array_equal(a["gaps"], b["gaps"])  # identical iterate sequence


@pytest.mark.parametrize("heuristic", ["original", "single5pc", "multi5pc"])
def test_blocked_fit_bitwise_p_invariant(heuristic):
    """Deterministic engine + blocked fold: the model is bitwise
    identical across process counts (the regression the tentpole must
    not break)."""
    X, y = make_blobs(n=90, sep=1.4, noise=1.3, seed=9)
    runs = {p: _fit(X, y, heuristic, p) for p in (1, 2, 4)}
    for p in (2, 4):
        assert np.array_equal(runs[1]["alpha"], runs[p]["alpha"])
        assert runs[1]["iterations"] == runs[p]["iterations"]
        assert np.array_equal(runs[1]["gaps"], runs[p]["gaps"])


# ----------------------------------------------------------------------
# baseline cache fills
# ----------------------------------------------------------------------
def _provider(cache_bytes, n=40, seed=2):
    X, _ = make_blobs(n=n, seed=seed, density=0.6)
    return _RowProvider(X, X.row_norms_sq(), KERNEL, cache_bytes)


@pytest.mark.parametrize(
    "cache_bytes", [1 << 20, 3 * 40 * 8]  # roomy, and 3-rows-tight
)
def test_provider_rows_matches_row_calls(cache_bytes):
    """Batched fills replay the get/put sequence exactly: same rows,
    same counters, same evictions — even when puts evict mid-batch."""
    idxs = [5, 1, 5, 17, 30, 2, 1, 39, 17, 0, 8, 5, 21]
    ref = _provider(cache_bytes)
    ref_rows = [ref.row(i).copy() for i in idxs]
    bat = _provider(cache_bytes)
    bat_rows = [r.copy() for r in bat.rows(idxs, batch=4)]
    for a, b in zip(ref_rows, bat_rows):
        assert np.array_equal(a, b)
    assert (bat.evals, bat.requests) == (ref.evals, ref.requests)
    assert bat.cache.stats() == ref.cache.stats()
    assert list(bat.cache._rows) == list(ref.cache._rows)  # LRU order too


def test_simulate_misses_predicts_eviction_chain():
    prov = _provider(3 * 40 * 8)  # exactly 3 rows fit
    for i in (0, 1, 2):
        prov.row(i)
    # 0 is LRU; fetching 3 evicts 0, so the trailing 0 misses again
    assert prov.cache.simulate_misses([1, 3, 0], 40 * 8) == [3, 0]
    # pure lookahead: nothing actually changed
    assert len(prov.cache) == 3 and prov.cache.misses == 3


# ----------------------------------------------------------------------
# blocked prediction
# ----------------------------------------------------------------------
def test_decision_function_shard_invariant():
    X, y = make_blobs(n=70, sep=2.0, noise=1.1, seed=5)
    model = fit_parallel(X, y, PARAMS, config=RunConfig(nprocs=2)).model
    X_test, _ = make_blobs(n=37, sep=2.0, noise=1.1, seed=6)
    full = model.decision_function(X_test)
    pieces = [
        model.decision_function(X_test.row_slice(lo, hi))
        for lo, hi in ((0, 11), (11, 12), (12, 37))
    ]
    assert np.array_equal(np.concatenate(pieces), full)
    # and invariant to the internal block size
    assert np.array_equal(model.decision_function(X_test, block_rows=3), full)
