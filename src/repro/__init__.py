"""repro — reproduction of *Fast and Accurate Support Vector Machines on
Large Scale Systems* (Vishnu et al., CLUSTER 2015).

This module is the stable public facade — the canonical spelling for
everything user-facing::

    import repro

    clf = repro.train(X, y, C=10.0, config=repro.RunConfig(nprocs=8))
    clf.save("model.json")

    clf = repro.SVC.load("model.json")
    result = repro.serve_requests(clf.model_, X_requests,
                                  policy=repro.BatchPolicy(max_batch=64))

Training / classification: :class:`SVC`, :class:`MultiClassSVC`,
:func:`train`, :func:`fit_parallel`.  Prediction:
:func:`decision_function_parallel`, :func:`predict_parallel`.
Persistence: :func:`save_model` / :func:`load_model` (bare models) and
``SVC.save`` / ``SVC.load`` / ``MultiClassSVC.save`` /
``MultiClassSVC.load`` (fitted classifiers).  Serving:
:func:`serve_requests` with :class:`BatchPolicy` (see :mod:`repro.serve`).
Streaming: :class:`IncrementalSVC` (``partial_fit`` / ``forget``),
:class:`StreamScenario` and :func:`run_stream` (see :mod:`repro.stream`).
Run-time knobs travel in one :class:`RunConfig`, passed as ``config=``
— the only way to set one.

Deep imports (``repro.core.svc.SVC`` etc.) keep working — the facade
re-exports, it does not move anything.
"""

__version__ = "2.0.0"

from . import mpi  # noqa: F401  (re-exported subsystem)
from .config import RunConfig
from .core import (
    SVC,
    DCConfig,
    MultiClassSVC,
    SVMModel,
    decision_function_parallel,
    fit_parallel,
    load_model,
    predict_parallel,
    save_model,
    train,
)
from . import serve  # noqa: F401  (re-exported subsystem)
from . import stream  # noqa: F401  (re-exported subsystem)
from .serve import (
    BatchPolicy,
    FleetResult,
    KillReplica,
    ModelRegistry,
    ServeResult,
    ServeStats,
    SwapModel,
    TenantQuota,
    serve_fleet,
    serve_requests,
)
from .stream import IncrementalSVC, StreamScenario, run_stream

__all__ = [
    "BatchPolicy",
    "DCConfig",
    "FleetResult",
    "IncrementalSVC",
    "KillReplica",
    "ModelRegistry",
    "MultiClassSVC",
    "RunConfig",
    "SVC",
    "SVMModel",
    "ServeResult",
    "ServeStats",
    "StreamScenario",
    "SwapModel",
    "TenantQuota",
    "__version__",
    "decision_function_parallel",
    "fit_parallel",
    "load_model",
    "mpi",
    "predict_parallel",
    "run_stream",
    "save_model",
    "serve",
    "serve_fleet",
    "serve_requests",
    "stream",
    "train",
]
