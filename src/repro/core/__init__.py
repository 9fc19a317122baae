"""``repro.core`` — the paper's contribution: distributed shrinking SMO.

Layers, bottom-up:

- :mod:`sets`, :mod:`gradient`, :mod:`wss` — the SMO numerics (Eq. 1-9);
- :mod:`smo` — sequential reference (Algorithm 1);
- :mod:`libsvm_smo` — the libsvm-style baseline with kernel cache;
- :mod:`state`, :mod:`shrinking`, :mod:`reconstruction`, :mod:`parallel`
  — the distributed engine (Algorithms 2-5, Table II heuristics);
- :mod:`solver`, :mod:`model`, :mod:`svc` — driver, trained model and
  the sklearn-style facade;
- :mod:`validation` — k-fold CV / grid search (§V-C).
"""

from ..config import RunConfig
from .dcsvm import DCConfig, DCStats, partition_samples, project_feasible
from .equiv import (
    assert_model_equiv,
    check_kkt,
    dense_kernel_matrix,
    held_out_grid,
)
from .libsvm_smo import LibsvmResult, solve_libsvm_style
from .model import SVMModel, load_model, save_model
from .multiclass import MultiClassSVC
from .params import ConvergenceError, SVMParams
from .shrinking import (
    BEST_HEURISTIC,
    HEURISTICS,
    WORST_HEURISTIC,
    Heuristic,
    get_heuristic,
    unsafe_variant,
)
from .smo import SMOResult, solve_sequential
from .predict import (
    ParallelPrediction,
    decision_function_parallel,
    predict_parallel,
)
from .solver import FitResult, fit_parallel
from .svc import SVC, NotFittedError
from .svr import SVR, SVRFitResult, fit_svr_parallel
from .train import train
from .trace import FitStats, RankTrace, ReconEvent, SolveTrace
from .validation import (
    GridSearchResult,
    cross_val_score,
    grid_search,
    kfold_indices,
    stratified_kfold_indices,
)

__all__ = [
    "BEST_HEURISTIC",
    "ConvergenceError",
    "DCConfig",
    "DCStats",
    "FitResult",
    "FitStats",
    "GridSearchResult",
    "HEURISTICS",
    "Heuristic",
    "LibsvmResult",
    "MultiClassSVC",
    "NotFittedError",
    "ParallelPrediction",
    "RankTrace",
    "ReconEvent",
    "RunConfig",
    "SMOResult",
    "SVC",
    "SVR",
    "SVRFitResult",
    "SVMModel",
    "SVMParams",
    "SolveTrace",
    "WORST_HEURISTIC",
    "assert_model_equiv",
    "check_kkt",
    "cross_val_score",
    "dense_kernel_matrix",
    "decision_function_parallel",
    "fit_parallel",
    "fit_svr_parallel",
    "partition_samples",
    "project_feasible",
    "get_heuristic",
    "grid_search",
    "held_out_grid",
    "kfold_indices",
    "load_model",
    "predict_parallel",
    "save_model",
    "solve_libsvm_style",
    "solve_sequential",
    "stratified_kfold_indices",
    "train",
    "unsafe_variant",
]
