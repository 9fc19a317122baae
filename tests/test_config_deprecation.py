"""The per-call keyword shims: still functional, now DeprecationWarning.

Run-time knobs travel in one :class:`repro.RunConfig`; the legacy
per-call keywords (``nprocs=`` / ``heuristic=`` / ``comm=`` ...) keep
working but warn, and the warning names the entry point, the offending
keywords, and the ``config=`` replacement.  The config path itself must
stay silent — these tests run it under ``error::DeprecationWarning``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.config import RunConfig, resolve_config
from repro.core import SVC, fit_parallel
from repro.core.predict import decision_function_parallel
from repro.serve import serve_requests

from .conftest import make_blobs


@pytest.fixture
def problem():
    return make_blobs(n=60, seed=2)


def test_fit_parallel_shim_warns_and_matches_config(problem, rbf_params):
    X, y = problem
    with pytest.warns(DeprecationWarning, match=r"fit_parallel: .*nprocs"):
        shim = fit_parallel(X, y, rbf_params, nprocs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        cfg = fit_parallel(X, y, rbf_params, config=RunConfig(nprocs=2))
    # deprecated, not broken: bitwise the same solve
    assert np.array_equal(shim.alpha, cfg.alpha)
    assert shim.iterations == cfg.iterations


def test_svc_shim_warns_and_matches_config(problem):
    X, y = problem
    with pytest.warns(DeprecationWarning, match=r"SVC: .*heuristic.*nprocs"):
        shim = SVC(C=5.0, gamma=0.5, heuristic="single5pc", nprocs=2)
    shim.fit(X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        clf = SVC(
            C=5.0, gamma=0.5,
            config=RunConfig(heuristic="single5pc", nprocs=2),
        )
        clf.fit(X, y)
    assert np.array_equal(
        shim.decision_function(X), clf.decision_function(X)
    )


def test_runconfig_equivalent_to_keyword_shims():
    """config= and the legacy keywords produce identical fits, and an
    explicit keyword overrides the config it is passed with."""
    X, y = make_blobs(n=60, seed=8)
    with pytest.warns(DeprecationWarning, match=r"SVC: .*heuristic, nprocs"):
        via_kw = SVC(C=5.0, sigma_sq=2.0, nprocs=2, heuristic="multi5pc")
    via_kw.fit(X, y)
    via_cfg = SVC(
        C=5.0, sigma_sq=2.0,
        config=RunConfig(nprocs=2, heuristic="multi5pc"),
    ).fit(X, y)
    assert np.array_equal(
        via_kw.model_.sv_coef, via_cfg.model_.sv_coef
    )
    assert via_kw.model_.beta == via_cfg.model_.beta

    with pytest.warns(DeprecationWarning, match=r"SVC: .*nprocs"):
        clf = SVC(config=RunConfig(nprocs=4), nprocs=1)
    assert clf.nprocs == 1


def test_predict_shim_warns(problem, rbf_params):
    X, y = problem
    model = fit_parallel(X, y, rbf_params, config=RunConfig()).model
    with pytest.warns(
        DeprecationWarning, match=r"decision_function_parallel: .*nprocs"
    ):
        shim = decision_function_parallel(model, X, nprocs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        cfg = decision_function_parallel(
            model, X, config=RunConfig(nprocs=2)
        )
    assert np.array_equal(shim.decision_values, cfg.decision_values)


def test_serve_requests_shim_warns(problem, rbf_params):
    X, y = problem
    model = fit_parallel(X, y, rbf_params, config=RunConfig()).model
    X_req = X.take_rows(np.arange(8))
    with pytest.warns(DeprecationWarning, match=r"serve_requests: .*nprocs"):
        shim = serve_requests(model, X_req, nprocs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        cfg = serve_requests(model, X_req, config=RunConfig(nprocs=2))
    assert np.array_equal(shim.scores, cfg.scores)


def test_warning_spells_out_the_replacement():
    with pytest.warns(DeprecationWarning) as rec:
        resolve_config(
            None, _entry="fit_parallel", nprocs=4, comm="hierarchical"
        )
    (msg,) = {str(w.message) for w in rec}
    assert "comm, nprocs are deprecated" in msg
    assert "config=RunConfig(...)" in msg
    assert "cfg.replace(comm=...)" in msg


def test_none_overrides_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        cfg = resolve_config(
            RunConfig(nprocs=3), _entry="fit_parallel",
            nprocs=None, heuristic=None, trace=False,
        )
    assert cfg.nprocs == 3


def test_config_path_is_silent_end_to_end(problem):
    X, y = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        clf = SVC(C=5.0, gamma=0.5, config=RunConfig(nprocs=2))
        clf.fit(X, y)
        assert clf.score(X, y) > 0.9
