"""Quickstart: train a distributed shrinking SVM on a toy problem.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import RunConfig
from repro.core import SVC
from repro.data import two_gaussians


def main() -> None:
    # 1. a two-class dataset like the paper's Figure 1: only a small
    #    fraction of samples will become support vectors
    ds = two_gaussians(n=400, overlap=0.35, seed=42, n_test=100)
    print(ds.describe())

    # 2. train with the paper's best heuristic (Multi5pc: multiple
    #    gradient reconstructions, initial threshold 5% of N) on eight
    #    simulated MPI ranks
    clf = SVC(
        C=10.0, gamma=0.5, config=RunConfig(heuristic="multi5pc", nprocs=8)
    )
    clf.fit(ds.X_train, ds.y_train)

    # 3. evaluate
    train_acc = clf.score(ds.X_train, ds.y_train)
    test_acc = clf.score(ds.X_test, ds.y_test)
    print(f"train accuracy: {train_acc:.3f}   test accuracy: {test_acc:.3f}")

    # 4. inspect what the solver did
    stats = clf.fit_result_.stats
    trace = clf.fit_result_.trace
    print(
        f"iterations: {stats.iterations}, support vectors: {stats.n_sv} "
        f"({stats.n_sv / ds.n_train:.1%} of N)"
    )
    print(
        f"samples shrunk: {trace.total_shrunk()}, "
        f"gradient reconstructions: {trace.n_reconstructions()}"
    )
    print(
        f"modeled time on the Cascade-like cluster: {stats.vtime * 1e3:.2f} ms "
        f"across {stats.nprocs} ranks "
        f"({stats.messages} messages, {stats.bytes_sent / 1e6:.2f} MB moved)"
    )

    # 5. per-rank accounting from the simulated MPI job
    print("\nper-rank virtual-time breakdown:")
    print(clf.fit_result_.spmd.stats_table())

    # 6. the decision function is an ordinary dual-form SVM
    f = clf.decision_function(ds.X_test.take_rows(np.arange(5)))
    print("\nfirst five test decision values:", np.round(f, 3))


if __name__ == "__main__":
    main()
