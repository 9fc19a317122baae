"""Beyond the paper's core: weighted classes, multiclass, distributed
prediction and the unsafe shrinking mode.

Run:  python examples/advanced_features.py
"""

import numpy as np

from repro import RunConfig
from repro.core import (
    SVC,
    MultiClassSVC,
    SVMParams,
    decision_function_parallel,
    fit_parallel,
    unsafe_variant,
)
from repro.kernels import RBFKernel
from repro.sparse import CSRMatrix


def imbalanced_demo() -> None:
    print("=== per-class weighted C (libsvm -w style) ===")
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(1.1, 1.0, (18, 3)), rng.normal(-1.1, 1.0, (182, 3))])
    y = np.array(["fraud"] * 18 + ["ok"] * 182)

    for cw, label in ((None, "unweighted"), ("balanced", "balanced")):
        clf = SVC(C=0.3, gamma=0.5, class_weight=cw).fit(X, y)
        pred = clf.predict(X)
        recall = np.mean(pred[y == "fraud"] == "fraud")
        print(f"  {label:>10}: fraud recall {recall:.2f}, "
              f"overall accuracy {clf.score(X, y):.2f}")
    print()


def multiclass_demo() -> None:
    print("=== one-vs-one multiclass (libsvm's strategy) ===")
    rng = np.random.default_rng(2)
    centers = np.array([[3, 0], [-2, 2.5], [-2, -2.5], [0.5, 4.5]])
    X = np.vstack([rng.normal(c, 0.7, (50, 2)) for c in centers])
    y = np.repeat(["north", "east", "south", "west"], 50)

    clf = MultiClassSVC(
        C=10.0, gamma=0.5, config=RunConfig(heuristic="multi5pc", nprocs=2)
    )
    clf.fit(X, y)
    print(f"  4 classes -> {clf.n_machines_} pairwise machines, "
          f"{clf.total_iterations_} total iterations, "
          f"{clf.total_support_} total SVs")
    print(f"  training accuracy: {clf.score(X, y):.3f}\n")


def parallel_prediction_demo() -> None:
    print("=== distributed batch prediction ===")
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(1.5, 1.0, (100, 4)), rng.normal(-1.5, 1.0, (100, 4))])
    y = np.r_[np.ones(100), -np.ones(100)]
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5))
    model = fit_parallel(
        CSRMatrix.from_dense(X), y, params, config=RunConfig(nprocs=2)
    ).model

    X_big = rng.normal(0, 1.5, (5000, 4))
    for p in (1, 4, 16):
        out = decision_function_parallel(
            model, X_big, config=RunConfig(nprocs=p)
        )
        print(f"  p={p:>2}: modeled prediction time "
              f"{out.vtime * 1e3:7.2f} ms for {X_big.shape[0]} samples")
    print()


def unsafe_demo() -> None:
    print("=== safe vs unsafe shrinking (the paper's §IV design choice) ===")
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(0.8, 1.3, (150, 3)), rng.normal(-0.8, 1.3, (150, 3))])
    y = np.r_[np.ones(150), -np.ones(150)]
    Xs = CSRMatrix.from_dense(X)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5))

    cfg = RunConfig(heuristic="multi5pc", nprocs=2)
    safe = fit_parallel(Xs, y, params, config=cfg)
    unsafe = fit_parallel(
        Xs, y, params,
        config=cfg.replace(heuristic=unsafe_variant("multi5pc")),
    )
    d_alpha = np.abs(safe.alpha - unsafe.alpha).max()
    print(f"  safe:   {safe.trace.kernel_evals:>8} kernel evals, "
          f"{safe.trace.n_reconstructions()} reconstructions")
    print(f"  unsafe: {unsafe.trace.kernel_evals:>8} kernel evals, "
          f"0 reconstructions, max|dα| vs safe = {d_alpha:.2e}")
    print("  (the paper keeps reconstruction: accuracy is never traded away)")


if __name__ == "__main__":
    imbalanced_demo()
    multiclass_demo()
    parallel_prediction_demo()
    unsafe_demo()
