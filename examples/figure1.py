"""Reproduce the paper's Figure 1: a two-class dataset whose boundary
is defined by a small set of support vectors.

Trains on a 2-D toy problem and renders a terminal scatter plot —
``+``/``-`` for ordinary samples of each class, ``P``/``N`` for the
support vectors (the paper's encircled points).  The punchline the
whole paper builds on: |SV| << N, so most samples can be shrunk away
during training without changing the answer.

Run:  python examples/figure1.py
"""

import numpy as np

from repro import RunConfig
from repro.core import SVC
from repro.data import two_gaussians

WIDTH, HEIGHT = 72, 26


def render(X: np.ndarray, y: np.ndarray, sv: np.ndarray) -> str:
    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    x0, x1 = X[:, 0].min(), X[:, 0].max()
    y0, y1 = X[:, 1].min(), X[:, 1].max()
    is_sv = np.zeros(X.shape[0], dtype=bool)
    is_sv[sv] = True
    # draw ordinary samples first so SV glyphs stay visible on top
    for pass_sv in (False, True):
        for i in range(X.shape[0]):
            if is_sv[i] != pass_sv:
                continue
            c = int((X[i, 0] - x0) / (x1 - x0 + 1e-12) * (WIDTH - 1))
            r = int((y1 - X[i, 1]) / (y1 - y0 + 1e-12) * (HEIGHT - 1))
            if pass_sv:
                glyph = "P" if y[i] > 0 else "N"
            else:
                glyph = "+" if y[i] > 0 else "-"
            grid[r][c] = glyph
    return "\n".join("".join(row) for row in grid)


def main() -> None:
    ds = two_gaussians(n=260, overlap=0.45, seed=12)
    Xd = ds.X_train.to_dense()

    clf = SVC(
        C=10.0, gamma=0.8, config=RunConfig(heuristic="multi5pc", nprocs=4)
    )
    clf.fit(ds.X_train, ds.y_train)

    print(render(Xd, ds.y_train, clf.support_))
    frac = clf.n_support_ / ds.n_train
    print(
        f"\n{ds.n_train} samples, {clf.n_support_} support vectors "
        f"({frac:.0%}) — marked P/N above."
    )
    tr = clf.fit_result_.trace
    print(
        f"shrinking eliminated {tr.total_shrunk()} sample-instances during "
        f"training and {tr.n_reconstructions()} gradient reconstruction(s) "
        f"kept the solution exact."
    )


if __name__ == "__main__":
    main()
