"""Trace-driven projection: consistency with the runtime's virtual time."""

import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.kernels import RBFKernel
from repro.perfmodel import (
    MachineSpec,
    parallel_efficiency,
    project,
    project_series,
    speedup_vs,
)

from ..conftest import make_blobs

M = MachineSpec.cascade()
PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=200_000)


@pytest.fixture(scope="module")
def traced_fit():
    """A trace that actually shrinks: threshold placed mid-run, where
    the bounds are tight enough for Eq. (9) to fire."""
    from repro.core.shrinking import Heuristic

    X, y = make_blobs(n=200, d=5, sep=1.2, noise=1.3, seed=23)
    mid = Heuristic("mid", "random", 100, "multi", "average")
    fr = fit_parallel(
        X, y, PARAMS, config=RunConfig(heuristic=mid, nprocs=1, machine=M)
    )
    assert fr.trace.total_shrunk() > 0  # fixture precondition
    return fr


def test_projection_positive_and_decomposed(traced_fit):
    t = project(traced_fit.trace, M, 8)
    assert t.total > 0
    assert t.total == pytest.approx(
        t.iter_compute + t.iter_comm + t.recon_compute + t.recon_comm
    )
    assert 0 <= t.recon_fraction <= 1
    assert 0 <= t.comm_fraction <= 1


def test_projection_close_to_simulated_vtime(traced_fit):
    """At the run's own p, the analytic model should land near the
    runtime's emergent virtual time (same cost constants)."""
    t = project(traced_fit.trace, M, 1)
    vtime = traced_fit.vtime
    assert t.total == pytest.approx(vtime, rel=0.5)


def test_compute_shrinks_with_p(traced_fit):
    t1 = project(traced_fit.trace, M, 1)
    t64 = project(traced_fit.trace, M, 64)
    assert t64.iter_compute < t1.iter_compute
    assert t64.iter_comm > t1.iter_comm  # log p factors


def test_recon_fraction_decreases_with_scale(traced_fit):
    """Figure 8's trend, at paper-like problem scales (the paper's four
    large datasets have N and iteration counts far above the miniature)."""
    fr = [
        project(
            traced_fit.trace, M, p, n_scale=500, iteration_scale=500
        ).recon_fraction
        for p in (16, 64, 256, 1024)
    ]
    assert fr[0] >= fr[1] >= fr[2] >= fr[3]
    assert fr[3] < 0.10  # the paper's "<10% at scale" observation


def test_n_scale_inflates_compute(traced_fit):
    base = project(traced_fit.trace, M, 16)
    scaled = project(traced_fit.trace, M, 16, n_scale=10)
    assert scaled.iter_compute > 5 * base.iter_compute
    assert scaled.recon_compute > 50 * base.recon_compute  # quadratic


def test_iteration_scale_stretches_axis(traced_fit):
    base = project(traced_fit.trace, M, 16)
    stretched = project(traced_fit.trace, M, 16, iteration_scale=3.0)
    assert stretched.iter_comm == pytest.approx(3 * base.iter_comm, rel=0.1)


def test_invalid_args(traced_fit):
    with pytest.raises(ValueError):
        project(traced_fit.trace, M, 0)
    with pytest.raises(ValueError):
        project(traced_fit.trace, M, 4, n_scale=-1)


def test_series_and_speedups(traced_fit):
    series = project_series(traced_fit.trace, M, [1, 4, 16])
    assert [t.p for t in series] == [1, 4, 16]
    sp = speedup_vs(series, series[0].total)
    assert sp[0] == pytest.approx(1.0)
    assert all(s > 0 for s in sp)
    with pytest.raises(ValueError):
        speedup_vs(series, 0.0)


def test_parallel_efficiency(traced_fit):
    series = project_series(traced_fit.trace, M, [1, 4, 16])
    eff = parallel_efficiency(series)
    assert eff[0] == pytest.approx(1.0)
    assert all(0 < e <= 1.5 for e in eff)
    assert parallel_efficiency([]) == []


def test_shrinking_trace_projects_faster_iter_compute(traced_fit):
    """A shrunk active set means fewer modeled kernel evals."""
    X, y = make_blobs(n=200, d=5, sep=1.2, noise=1.3, seed=23)
    orig = fit_parallel(
        X, y, PARAMS,
        config=RunConfig(heuristic="original", nprocs=1, machine=M),
    )
    assert (
        project(traced_fit.trace, M, 1).iter_compute
        < project(orig.trace, M, 1).iter_compute
    )


# ----------------------------------------------------------------------
# WSS-aware projection
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def wss_fits():
    X, y = make_blobs(n=200, d=5, sep=1.2, noise=1.3, seed=23)
    out = {}
    for wss in ("mvp", "second_order", "planning_ahead"):
        out[wss] = fit_parallel(
            X, y, PARAMS,
            config=RunConfig(
                heuristic="multi5pc", nprocs=2, machine=M, wss=wss
            ),
        )
    return out


def test_wss_second_order_prices_phase_b(wss_fits):
    """Phase-B combines add communication per electing iteration — the
    counters in the trace drive the price."""
    import dataclasses

    tr = wss_fits["second_order"].trace
    assert tr.wss_elections > 0
    stripped = dataclasses.replace(tr, wss_elections=0, wss_reuses=0)
    plain = project(stripped, M, 8)
    wss2 = project(tr, M, 8)
    assert wss2.iter_comm > plain.iter_comm
    assert wss2.iter_compute > plain.iter_compute  # b²/a scoring


@pytest.fixture(scope="module")
def reusing_fit():
    """A planning-ahead fit whose reuse fires: the w7a miniature (the
    blobs of ``wss_fits`` never reuse a pair)."""
    import numpy as np

    from repro.data import DATASETS, load_dataset

    ds = load_dataset("w7a", scale=0.006)
    y = np.where(ds.y_train == np.unique(ds.y_train)[1], 1.0, -1.0)
    entry = DATASETS["w7a"]
    params = SVMParams(
        C=entry.C, kernel=RBFKernel.from_sigma_sq(entry.sigma_sq),
        eps=1e-3, max_iter=200_000,
    )
    return fit_parallel(
        ds.X_train, y, params,
        config=RunConfig(
            heuristic="multi5pc", nprocs=2, machine=M, wss="planning_ahead"
        ),
    )


def test_wss_reuse_skips_elections(reusing_fit):
    """Reuse iterations elect nothing: the trace's reuse counter
    discounts exactly that many phase-A elections."""
    import dataclasses

    from repro.perfmodel import costs

    tr = reusing_fit.trace
    assert tr.wss_reuses > 0
    stripped = dataclasses.replace(tr, wss_reuses=0)
    pa = project(tr, M, 8)
    full = project(stripped, M, 8)
    saved = tr.wss_reuses * costs.election_time(M, 8)
    assert pa.iter_comm == pytest.approx(full.iter_comm - saved)


def test_wss_movement_follows_trace(wss_fits):
    """Samples move only on resident-cache misses; the trace-counted
    broadcasts undercut the two-samples-every-iteration bound that a
    trace predating the counter falls back to."""
    import dataclasses

    tr = wss_fits["second_order"].trace
    assert 0 < tr.pair_broadcasts < 2 * tr.iterations
    uncounted = dataclasses.replace(tr, pair_broadcasts=0)
    two_per_iter = project(uncounted, M, 8)
    counted = project(tr, M, 8)
    assert counted.iter_comm < two_per_iter.iter_comm


def test_wss_projection_close_to_simulated_vtime(wss_fits):
    """The wss-aware model lands near the runtime's emergent virtual
    time at the run's own p for every policy."""
    for wss, fr in wss_fits.items():
        t = project(fr.trace, M, 2)
        assert t.total == pytest.approx(fr.vtime, rel=0.5), wss

