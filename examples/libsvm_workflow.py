"""A full practitioner workflow on libsvm-format data.

1. write a dataset to the libsvm text format (the format the paper's
   datasets ship in), 2. load it back, 3. scale features, 4. pick
   (C, σ²) by ten-fold cross-validation (the paper's §V-C procedure),
5. train the final distributed model and 6. serialize it.

Run:  python examples/libsvm_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import RunConfig
from repro.core import SVC, grid_search
from repro.core.model import SVMModel
from repro.data import MinMaxScaler, two_gaussians
from repro.sparse import load_libsvm, save_libsvm


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-libsvm-") as tmp:
        run(Path(tmp))


def run(workdir: Path) -> None:
    train_path = workdir / "train.libsvm"
    test_path = workdir / "test.libsvm"

    # 1. materialize a problem in libsvm text format
    ds = two_gaussians(n=240, d=6, overlap=0.4, seed=11, n_test=80)
    save_libsvm(train_path, ds.X_train, ds.y_train)
    save_libsvm(test_path, ds.X_test, ds.y_test)
    print(f"wrote {train_path} ({train_path.stat().st_size} bytes)")

    # 2. load (the reader tolerates comments/blank lines/unsorted indices)
    X_train, y_train = load_libsvm(train_path, n_features=ds.n_features)
    X_test, y_test = load_libsvm(test_path, n_features=ds.n_features)

    # 3. svm-scale style feature scaling, fitted on training data only
    scaler = MinMaxScaler()
    X_train = scaler.fit_transform(X_train)
    X_test = scaler.transform(X_test)

    # 4. hyperparameter selection by k-fold cross-validation
    search = grid_search(
        X_train, y_train,
        Cs=[1.0, 10.0, 32.0],
        sigma_sqs=[1.0, 4.0, 25.0],
        k=5,
        base_params={"config": RunConfig(heuristic="multi5pc", nprocs=2)},
    )
    best = search.best_params
    print(f"grid search winner: C={best['C']}, sigma^2={best['sigma_sq']} "
          f"(cv accuracy {search.best_score:.3f})")

    # 5. final distributed training with the selected hyperparameters
    clf = SVC(
        C=best["C"],
        sigma_sq=best["sigma_sq"],
        config=RunConfig(heuristic="multi5pc", nprocs=8),
    ).fit(X_train, y_train)
    print(f"test accuracy: {clf.score(X_test, y_test):.3f} "
          f"({clf.n_support_} SVs, {clf.n_iter_} iterations)")

    # 6. serialize the model as plain data and reload it
    blob = clf.model_.to_dict()
    reloaded = SVMModel.from_dict(blob)
    assert np.array_equal(
        reloaded.predict(X_test), clf.model_.predict(X_test)
    )
    print("model round-trips through SVMModel.to_dict()/from_dict()")


if __name__ == "__main__":
    main()
