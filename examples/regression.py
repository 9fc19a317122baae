"""ε-SVR on the distributed shrinking engine.

The paper's conclusion: "even larger datasets than considered in this
paper can now be used for classification and regression, without any
accuracy loss."  Regression reduces to the same 2n-variable dual the
engine already solves, so the Table II heuristics and the gradient
reconstruction apply unchanged.

Run:  python examples/regression.py
"""

import numpy as np

from repro import RunConfig
from repro.core import SVR


def main() -> None:
    rng = np.random.default_rng(7)
    X = np.sort(rng.uniform(-3, 3, 200))[:, None]
    y = np.sin(2 * X[:, 0]) * np.exp(-0.1 * X[:, 0] ** 2) + rng.normal(0, 0.05, 200)

    for heuristic in ("original", "multi5pc"):
        svr = SVR(
            C=10.0, gamma=2.0, epsilon=0.08,
            config=RunConfig(heuristic=heuristic, nprocs=4),
        ).fit(X, y)
        tr = svr.fit_result_.trace
        print(
            f"{heuristic:>9}: R2={svr.score(X, y):.4f} "
            f"SVs={svr.n_support_:3d}/{X.shape[0]} "
            f"iters={svr.n_iter_} shrunk={tr.total_shrunk()} "
            f"recons={tr.n_reconstructions()} "
            f"vtime={svr.fit_result_.vtime * 1e3:.2f} ms"
        )

    svr = SVR(
        C=10.0, gamma=2.0, epsilon=0.08,
        config=RunConfig(heuristic="multi5pc", nprocs=4),
    )
    svr.fit(X, y)
    grid = np.linspace(-3, 3, 9)[:, None]
    pred = svr.predict(grid)
    truth = np.sin(2 * grid[:, 0]) * np.exp(-0.1 * grid[:, 0] ** 2)
    print("\n   x      f(x)   predicted")
    for g, t, p in zip(grid[:, 0], truth, pred):
        print(f"{g:6.2f} {t:9.3f} {p:10.3f}")


if __name__ == "__main__":
    main()
