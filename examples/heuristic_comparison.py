"""Compare the paper's Table II shrinking heuristics on one dataset.

Reproduces the §IV/§V story in miniature: aggressive heuristics shrink
early (risking misses that the gradient reconstruction repairs),
conservative ones shrink late or never — and every one of them returns
the same ε-optimal solution as the no-shrinking Original algorithm.

Run:  python examples/heuristic_comparison.py [dataset]
"""

import sys

import numpy as np

from repro import RunConfig
from repro.core import HEURISTICS, SVMParams, fit_parallel
from repro.data import get_entry, load_dataset
from repro.kernels import RBFKernel


def main(dataset: str = "mnist") -> None:
    entry = get_entry(dataset)
    ds = load_dataset(dataset)
    print(f"{ds.describe()}   (paper: N={entry.paper_train}, "
          f"C={entry.C}, sigma^2={entry.sigma_sq})\n")

    params = SVMParams(
        C=entry.C, kernel=RBFKernel(entry.gamma), eps=1e-3, max_iter=2_000_000
    )

    cfg = RunConfig(heuristic="original", nprocs=4)
    reference = fit_parallel(ds.X_train, ds.y_train, params, config=cfg)

    header = (
        f"{'heuristic':>12} {'class':>13} {'iters':>7} {'shrunk':>7} "
        f"{'recons':>7} {'min active':>11} {'vtime(ms)':>10} {'same soln':>10}"
    )
    print(header)
    print("-" * len(header))
    for name, heur in HEURISTICS.items():
        fr = (
            reference
            if name == "original"
            else fit_parallel(
                ds.X_train, ds.y_train, params,
                config=cfg.replace(heuristic=name),
            )
        )
        same = np.allclose(fr.alpha, reference.alpha, atol=0.01 * entry.C)
        tr = fr.trace
        min_active = int(tr.active_counts.min()) if tr.iterations else ds.n_train
        print(
            f"{name:>12} {heur.klass:>13} {fr.iterations:>7} "
            f"{tr.total_shrunk():>7} {tr.n_reconstructions():>7} "
            f"{min_active:>11} {fr.vtime * 1e3:>10.2f} {str(same):>10}"
        )

    print(
        "\nEvery heuristic reports the same solution as Original — the "
        "gradient reconstruction (Algorithm 3) repairs any premature "
        "eliminations, which is the paper's accuracy guarantee."
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "mnist")
