"""WSS policy layer: registry plumbing, cross-p determinism, model
equivalence, the planning-ahead reuse pool, and the training-side
kernel-column cache.

The contract: the default ``mvp`` policy is bitwise identical to the
historical solver at every process count; ``second_order`` and
``planning_ahead`` produce tolerance-equivalent models
(``assert_model_equiv``) while keeping their *own* iteration sequences
p-independent.  A column budget changes no policy's trajectory, only
its kernel-eval bill (``test_kernel_reuse.py``).  The bitwise answers
of both non-default policies, with and without a budget, are held as
golden data in ``test_engine_equivalence.py``.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core.wss import SolverError
from repro.core.wss_policies import (
    MAX_CONSECUTIVE_REUSES,
    PoolSample,
    ReusePool,
    get_wss_policy,
    resolve_wss,
    second_order_best,
)
from repro.data import DATASETS, load_dataset
from repro.kernels import LinearKernel, RBFKernel
from repro.sparse import CSRMatrix

from ..conftest import assert_model_equiv

PS = [1, 2, 4]
MINIATURES = [("mushrooms", 0.02), ("w7a", 0.006)]
KERNELS = {
    "rbf": lambda sigma_sq: RBFKernel.from_sigma_sq(sigma_sq),
    "linear": lambda sigma_sq: LinearKernel(),
}


@pytest.fixture(scope="module")
def miniatures():
    out = {}
    for name, scale in MINIATURES:
        ds = load_dataset(name, scale=scale)
        classes = np.unique(ds.y_train)
        y = np.where(ds.y_train == classes[1], 1.0, -1.0)
        entry = DATASETS[name]
        out[name] = (ds.X_train, y, entry.C, entry.sigma_sq)
    return out


def _params(kernel_name, C, sigma_sq):
    return SVMParams(
        C=C, kernel=KERNELS[kernel_name](sigma_sq), eps=1e-3,
        max_iter=200_000,
    )


def _fit(X, y, params, p, wss, cache_mb=0.0):
    return fit_parallel(
        X, y, params,
        config=RunConfig(
            heuristic="multi5pc", nprocs=p, wss=wss,
            kernel_cache_mb=cache_mb,
        ),
    )


# ----------------------------------------------------------------------
# default policy: bitwise-unchanged across the whole matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("dataset", [name for name, _ in MINIATURES])
def test_mvp_default_bitwise_matrix(miniatures, dataset, kernel_name):
    X, y, C, sigma_sq = miniatures[dataset]
    params = _params(kernel_name, C, sigma_sq)
    # the implicit default IS mvp cache-off
    ref = fit_parallel(
        X, y, params, config=RunConfig(heuristic="multi5pc", nprocs=1)
    )
    assert ref.stats.wss == "mvp"
    for p in PS:
        fr = _fit(X, y, params, p, "mvp")
        # cross-p: the iteration sequence is p-independent (β's
        # free-sample mean reduces in p-dependent order, so only the
        # trajectory is bitwise across p)
        assert np.array_equal(fr.alpha, ref.alpha)
        assert fr.iterations == ref.iterations
        assert fr.stats.trace.wss_elections == 0
        assert fr.stats.trace.wss_reuses == 0


# ----------------------------------------------------------------------
# non-mvp policies: p-deterministic + model-equivalent to mvp
# ----------------------------------------------------------------------
@pytest.mark.parametrize("wss", ["second_order", "planning_ahead"])
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
@pytest.mark.parametrize("dataset", [name for name, _ in MINIATURES])
def test_policy_equivalence_matrix(miniatures, dataset, kernel_name, wss):
    X, y, C, sigma_sq = miniatures[dataset]
    params = _params(kernel_name, C, sigma_sq)
    mvp = _fit(X, y, params, 1, "mvp")
    ref = None
    for p in PS:
        fr = _fit(X, y, params, p, wss)
        if ref is None:
            ref = fr
            # a different election rule must yield an equivalent model,
            # certified once per (dataset, kernel, policy)
            assert_model_equiv(fr, mvp, X, y, params)
        else:
            # ... and the policy's own trajectory is bitwise
            # p-independent, like mvp's
            assert np.array_equal(fr.alpha, ref.alpha)
            assert fr.iterations == ref.iterations
        assert fr.stats.wss == wss


def test_second_order_elects_and_saves_evals(miniatures):
    """The point of WSS2: fewer iterations and kernel evals on w7a."""
    X, y, C, sigma_sq = miniatures["w7a"]
    params = _params("rbf", C, sigma_sq)
    mvp = _fit(X, y, params, 2, "mvp")
    so = _fit(X, y, params, 2, "second_order")
    assert so.stats.trace.wss_elections > 0
    assert so.iterations < mvp.iterations
    assert so.stats.kernel_evals < mvp.stats.kernel_evals


def test_planning_ahead_reuses(miniatures):
    X, y, C, sigma_sq = miniatures["w7a"]
    params = _params("rbf", C, sigma_sq)
    fr = _fit(X, y, params, 2, "planning_ahead")
    tr = fr.stats.trace
    assert tr.wss_reuses > 0
    # every iteration either reused or elected; an election's phase B
    # only fires when phase A neither converged nor emptied the low
    # set, so phase-B combines can undercount elected iterations
    assert tr.wss_elections > 0
    assert tr.wss_elections + tr.wss_reuses <= fr.iterations + 1


# ----------------------------------------------------------------------
# training-side kernel-column cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [1, 2])
def test_mvp_cache_changes_nothing_but_evals(miniatures, p):
    X, y, C, sigma_sq = miniatures["mushrooms"]
    params = _params("rbf", C, sigma_sq)
    off = _fit(X, y, params, p, "mvp", cache_mb=0.0)
    on = _fit(X, y, params, p, "mvp", cache_mb=4.0)
    assert np.array_equal(on.alpha, off.alpha)
    assert on.model.beta == off.model.beta
    assert on.iterations == off.iterations
    # the cache only changes who computes a column: hits are recorded,
    # evals can only go down
    assert on.stats.trace.cache_hits > 0
    assert on.stats.kernel_evals <= off.stats.kernel_evals
    assert off.stats.trace.cache_hits == 0
    assert 0.0 < on.stats.trace.cache_hit_rate <= 1.0


# ----------------------------------------------------------------------
# registry / resolve plumbing
# ----------------------------------------------------------------------
def test_wss_toggle_plumbing(miniatures, monkeypatch):
    assert resolve_wss(None) == "mvp"
    assert resolve_wss("planning_ahead") == "planning_ahead"
    # the policy comes from RunConfig alone: the environment variable
    # that once overrode the default is not read
    monkeypatch.setenv("REPRO_SVM_WSS", "second_order")
    assert resolve_wss(None) == "mvp"
    with pytest.raises(ValueError):
        resolve_wss("newton")
    with pytest.raises(ValueError):
        get_wss_policy("newton")
    assert get_wss_policy("planning_ahead").reuse_eta == 0.5

    X, y, C, sigma_sq = miniatures["mushrooms"]
    params = _params("rbf", C, sigma_sq)
    fr = _fit(X, y, params, 2, None)
    assert fr.stats.wss == "mvp"
    assert fr.stats.trace.wss_elections == 0
    fr = _fit(X, y, params, 2, "second_order")
    assert fr.stats.wss == "second_order"
    assert fr.stats.trace.wss_elections > 0


# ----------------------------------------------------------------------
# NaN guard: a poisoned gradient fails loudly, naming rank and index
# ----------------------------------------------------------------------
class _PoisonKernel(LinearKernel):
    """Returns NaN kernel columns — a stand-in for overflowing kernel
    parameters poisoning the dual state."""

    def block(self, X, norms, rows, row_norms):
        out = super().block(X, norms, rows, row_norms)
        out[...] = np.nan
        return out


def test_nan_gradient_raises_solver_error():
    rng = np.random.default_rng(0)
    Xd = rng.normal(size=(24, 3))
    y = np.where(rng.random(24) > 0.5, 1.0, -1.0)
    params = SVMParams(C=1.0, kernel=_PoisonKernel(), eps=1e-3,
                       max_iter=1000)
    from repro.mpi.errors import SpmdJobError

    # the rank thread's SolverError surfaces through the SPMD runtime
    # with its diagnostic (rank + local index) intact
    with pytest.raises(SpmdJobError, match="NaN gradient") as ei:
        fit_parallel(CSRMatrix.from_dense(Xd), y, params,
                     config=RunConfig(heuristic="original", nprocs=2))
    assert "SolverError" in str(ei.value)
    assert "rank 0" in str(ei.value)


def test_nan_guard_names_rank_and_index():
    from repro.core.wss import guard_gamma_finite, local_extrema

    g = np.array([0.0, np.nan, np.nan])
    with pytest.raises(SolverError) as ei:
        guard_gamma_finite(g, rank=3, local_indices=np.array([7, 11, 13]))
    msg = str(ei.value)
    assert "rank 3" in msg and "local index 11" in msg
    assert "2 NaN entries" in msg
    # the election path guards too, mapping packed positions back
    m = np.ones(2, dtype=bool)
    with pytest.raises(SolverError, match="local index 9"):
        local_extrema(np.array([1.0, np.nan]), m, m, 0,
                      rank=0, local_indices=np.array([4, 9]))
    # clean gradients pass untouched (inf is legitimate early state)
    guard_gamma_finite(np.array([1.0, np.inf, -np.inf]))


# ----------------------------------------------------------------------
# second_order_best scoring
# ----------------------------------------------------------------------
class TestSecondOrderBest:
    def test_prefers_flat_curvature(self):
        gamma = np.array([0.0, 1.0, 1.0])
        low = np.array([False, True, True])
        # same b, but sample 2's column is closer to the up sample
        # (higher Φ(u,j) -> smaller a -> larger gain)
        kcol = np.array([1.0, 0.0, 0.9])
        diag = np.ones(3)
        gain, j, gj = second_order_best(
            gamma, low, kcol, diag, 1.0, -1.0, np.arange(3)
        )
        assert j == 2 and gj == 1.0
        assert gain == pytest.approx(4.0 / 0.2)

    def test_no_positive_b(self):
        gamma = np.zeros(3)
        low = np.ones(3, dtype=bool)
        gain, j, gj = second_order_best(
            gamma, low, np.zeros(3), np.ones(3), 1.0, 5.0, np.arange(3)
        )
        assert j == -1 and gain == -np.inf

    def test_tie_breaks_to_smallest_gidx(self):
        gamma = np.array([1.0, 1.0])
        low = np.ones(2, dtype=bool)
        gain, j, _ = second_order_best(
            gamma, low, np.zeros(2), np.ones(2), 1.0, 0.0,
            np.array([40, 10]),
        )
        assert j == 40  # first max in local order == ascending gidx

    def test_non_psd_curvature_regularized(self):
        gamma = np.array([2.0])
        low = np.array([True])
        # a = k_uu + diag - 2*kcol = 1 + 1 - 4 < 0 -> tau floor
        gain, j, _ = second_order_best(
            gamma, low, np.array([2.0]), np.ones(1), 1.0, 0.0,
            np.arange(1),
        )
        assert np.isfinite(gain) and gain > 0 and j == 0


# ----------------------------------------------------------------------
# ReusePool unit behaviour
# ----------------------------------------------------------------------
class _DotKernel:
    """Linear kernel over sparse (indices, values, norm) rows."""

    def pair(self, ra, rb):
        da = dict(zip(ra[0].tolist(), ra[1].tolist()))
        return float(sum(v * da.get(i, 0.0)
                         for i, v in zip(rb[0].tolist(), rb[1].tolist())))


def _row(*dense):
    v = np.asarray(dense, dtype=np.float64)
    idx = np.flatnonzero(v)
    return (idx, v[idx], float(v @ v))


def _sample(gidx, row, y=1.0, C=10.0, alpha=1.0, gamma=0.0):
    return PoolSample(gidx=gidx, row=row, y=y, C=C, alpha=alpha,
                      gamma=gamma)


class TestReusePool:
    def test_memoized_pair_kernels(self):
        pool = ReusePool(_DotKernel())
        a = _sample(0, _row(1.0, 0.0))
        b = _sample(1, _row(1.0, 1.0))
        assert pool.k(a, b) == 1.0
        assert pool.take_new_evals() == 1
        assert pool.k(b, a) == 1.0  # symmetric key, memo hit
        assert pool.take_new_evals() == 0

    def test_seed_k_is_free(self):
        pool = ReusePool(_DotKernel())
        a, b = _sample(3, _row(1.0)), _sample(7, _row(2.0))
        pool.seed_k(7, 3, 2.0)
        assert pool.k(a, b) == 2.0
        assert pool.take_new_evals() == 0

    def test_eviction_purges_memo(self):
        pool = ReusePool(_DotKernel(), capacity=2)
        s = [_sample(i, _row(float(i + 1))) for i in range(4)]
        pool.observe_update(s[0], s[1], 0.0, 0.0)
        pool.k(s[0], s[1])
        pool.observe_update(s[2], s[3], 0.0, 0.0)  # evicts 0 and 1
        assert len(pool) == 2
        assert not any(0 in k or 1 in k for k in pool._pair_k)
        pool.clear()
        assert len(pool) == 0 and pool._pair_k == {}

    def test_bystander_gamma_maintenance(self):
        pool = ReusePool(_DotKernel())
        bys = _sample(0, _row(1.0, 0.0), gamma=0.5)
        u0 = _sample(1, _row(2.0, 0.0))
        l0 = _sample(2, _row(0.0, 3.0))
        pool.observe_update(u0, l0, 0.0, 0.0)
        pool.observe_update(bys, _sample(3, _row(0.0, 1.0)), 0.0, 0.0)
        # now step the (1, 2) pair: bystander 0 advances by
        # coef_up * K(0,1) + coef_low * K(0,2) = 0.25*2 + (-0.5)*0
        pool.observe_update(
            _sample(1, u0.row, alpha=2.0, gamma=1.0),
            _sample(2, l0.row, alpha=0.5, gamma=1.0),
            0.25, -0.5,
        )
        assert pool._samples[0].gamma == pytest.approx(0.5 + 0.5)
        # the updated pair carries its caller-computed state verbatim
        assert pool._samples[1].alpha == 2.0
        assert pool._samples[2].gamma == 1.0

    def test_best_pair_orientation_and_threshold(self):
        pool = ReusePool(_DotKernel())
        # a is low-eligible (alpha interior), b is up-eligible;
        # gamma gap favours up=b, low=a
        a = _sample(0, _row(1.0, 0.0), alpha=5.0, gamma=2.0)
        b = _sample(1, _row(0.0, 1.0), alpha=5.0, gamma=-2.0)
        pool.observe_update(a, b, 0.0, 0.0)
        got = pool.best_pair(phase_eps=1e-3)
        assert got is not None
        gain, up, low = got
        assert (up.gidx, low.gidx) == (1, 0)
        assert gain == pytest.approx(16.0 / 2.0)  # gap² / (1+1-0)
        # a gap below 2·eps is not reusable
        assert pool.best_pair(phase_eps=3.0) is None

    def test_best_pair_respects_eligibility(self):
        pool = ReusePool(_DotKernel())
        # up candidate pinned at C for y=+1 -> not up-eligible
        a = _sample(0, _row(1.0, 0.0), alpha=10.0, C=10.0, gamma=-2.0)
        b = _sample(1, _row(0.0, 1.0), alpha=0.0, C=10.0, gamma=2.0)
        pool.observe_update(a, b, 0.0, 0.0)
        # orientation up=a/low=b has the gap, but a is at its bound and
        # b (alpha=0, y=+1) is not low-eligible either
        assert pool.best_pair(phase_eps=1e-3) is None

    def test_best_pair_first_max_in_insertion_order(self):
        pool = ReusePool(_DotKernel(), capacity=4)
        rows = [_row(1.0, 0.0, 0.0), _row(0.0, 1.0, 0.0),
                _row(0.0, 0.0, 1.0)]
        # two pairs with identical gain; the earlier-inserted must win
        s0 = _sample(0, rows[0], alpha=5.0, gamma=2.0)
        s1 = _sample(1, rows[1], alpha=5.0, gamma=-2.0)
        s2 = _sample(2, rows[2], alpha=5.0, gamma=2.0)
        pool.observe_update(s0, s1, 0.0, 0.0)
        pool.observe_update(s2, _sample(3, _row(0.0), alpha=5.0,
                                        gamma=0.0), 0.0, 0.0)
        gain, up, low = pool.best_pair(phase_eps=1e-3)
        assert (up.gidx, low.gidx) == (1, 0)

    def test_reuse_cap_constant_sane(self):
        assert MAX_CONSECUTIVE_REUSES >= 1
