"""``config=`` is the only way to pass a run-time knob.

Each :class:`repro.RunConfig` field once had per-call keyword copies on
nine entry points, 37 (entry point, keyword) pairs in all.  The copies
are gone: passing one is a plain ``TypeError``, like any other unknown
keyword, and the estimators carry their run-time knobs in ``config``
alone.

Nor is there a switch that only tests set: the reconstruction ring has
one fold, one wire and one fold order, and the modeled serving
constants are defined once, in :mod:`repro.perfmodel.costs`.
"""

from __future__ import annotations

import inspect
import warnings

import pytest

import repro
from repro import config as config_module
from repro.config import RunConfig
from repro.core import (
    SVC,
    SVR,
    decision_function_parallel,
    fit_parallel,
    predict_parallel,
)
from repro.core import reconstruction
from repro.core.svr import fit_svr_parallel
from repro.mpi import run_spmd
from repro.mpi.communicator import Comm
from repro.mpi.runtime import SpmdRuntime
from repro.perfmodel import costs, project, project_fleet, project_stream
from repro.serve import serve_fleet, serve_requests

from .conftest import make_blobs

#: the estimators' former copies of RunConfig fields
SVC_RUN_NAMES = (
    "heuristic", "nprocs", "machine", "faults", "wss", "kernel_cache_mb",
    "comm", "dc",
)
SVR_RUN_NAMES = ("heuristic", "nprocs", "machine")

#: every (entry point, keyword) pair that copied a RunConfig field;
#: with ``fit_dc``'s ``dc`` (the whole function is gone) these are 37
REMOVED_KEYWORDS = {
    fit_parallel: (
        "heuristic", "nprocs", "machine", "deadlock_timeout", "faults",
        "wss", "kernel_cache_mb", "comm", "dc",
    ),
    SVC: SVC_RUN_NAMES,
    SVR: SVR_RUN_NAMES,
    fit_svr_parallel: ("heuristic", "nprocs", "machine", "comm"),
    decision_function_parallel: ("nprocs", "machine"),
    predict_parallel: ("nprocs", "machine"),
    serve_requests: ("nprocs", "machine", "faults"),
    serve_fleet: ("nprocs", "machine", "faults", "replicas", "tenant_quota"),
}

PAIRS = [
    pytest.param(entry, keyword, id=f"{entry.__name__}-{keyword}")
    for entry, keywords in REMOVED_KEYWORDS.items()
    for keyword in keywords
]


def test_pair_count():
    assert len(PAIRS) + 1 == 37  # + fit_dc(dc=...)


@pytest.mark.parametrize("entry, keyword", PAIRS)
def test_removed_keyword_raises_type_error(entry, keyword):
    with pytest.raises(
        TypeError, match=f"unexpected keyword argument '{keyword}'"
    ):
        entry(**{keyword: None})


@pytest.mark.parametrize(
    "entry, keyword",
    [
        pytest.param(serve_requests, "reduction", id="serve_requests-reduction"),
        pytest.param(project, "wss", id="project-wss"),
        pytest.param(project_stream, "wss", id="project_stream-wss"),
    ],
)
def test_removed_option_raises_type_error(entry, keyword):
    with pytest.raises(
        TypeError, match=f"unexpected keyword argument '{keyword}'"
    ):
        entry(**{keyword: "slab" if keyword == "reduction" else "mvp"})


def test_merge_rule_and_fit_dc_are_gone():
    assert not hasattr(config_module, "resolve_config")
    assert not hasattr(RunConfig, "merged")
    assert not hasattr(SVC, "_run_config")
    assert not hasattr(repro, "fit_dc")
    assert not hasattr(repro.core, "fit_dc")
    assert not hasattr(repro.core.dcsvm, "fit_dc")


def test_svc_params_carry_config():
    params = SVC().get_params()
    assert params["config"] == RunConfig()
    assert not set(SVC_RUN_NAMES) & set(params)
    clf = SVC(config=RunConfig(nprocs=3))
    for name in SVC_RUN_NAMES:
        assert not hasattr(clf, name)
        with pytest.raises(ValueError, match="unknown parameter"):
            clf.set_params(**{name: None})
    svr = SVR(config=RunConfig(nprocs=3))
    assert svr.config.nprocs == 3
    assert not any(hasattr(svr, name) for name in SVR_RUN_NAMES)


def test_config_path_is_silent_end_to_end():
    X, y = make_blobs(n=60, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        clf = SVC(C=5.0, gamma=0.5, config=RunConfig(nprocs=2))
        clf.fit(X, y)
        assert clf.score(X, y) > 0.9


def test_one_reconstruction_ring():
    assert list(
        inspect.signature(reconstruction.gradient_reconstruction).parameters
    ) == ["comm", "blk", "kernel", "iteration", "trace"]
    assert not hasattr(reconstruction, "DEFAULT_FOLD")
    assert not hasattr(reconstruction, "DEFAULT_WIRE")


#: fleet_slab_time's positional arguments (m, slab_rows, n_sv, avg_nnz, p)
SLAB_ARGS = (None, 1, 1, 1.0, 1)


@pytest.mark.parametrize(
    "entry, args, keyword",
    [
        pytest.param(Comm.send, (None, b"x", 1), "wire", id="send-wire"),
        pytest.param(run_spmd, (None, 1), "retry", id="run_spmd-retry"),
        pytest.param(SpmdRuntime, (1,), "retry", id="SpmdRuntime-retry"),
        pytest.param(
            serve_fleet, (None, None), "detect_seconds",
            id="serve_fleet-detect_seconds",
        ),
        pytest.param(
            project_fleet, (None,), "detect_seconds",
            id="project_fleet-detect_seconds",
        ),
        pytest.param(
            costs.fleet_slab_time, SLAB_ARGS, "dispatch_flops",
            id="fleet_slab_time-dispatch_flops",
        ),
        pytest.param(
            costs.fleet_slab_time, SLAB_ARGS, "request_flops",
            id="fleet_slab_time-request_flops",
        ),
    ],
)
def test_test_only_switch_raises_type_error(entry, args, keyword):
    with pytest.raises(
        TypeError, match=f"unexpected keyword argument '{keyword}'"
    ):
        entry(*args, **{keyword: None})
