"""A/B the working-set-selection policies on one problem.

The solver's default election (``mvp``, Keerthi et al. maximal
violating pair) is first-order: it picks the two samples with the
worst KKT violation.  ``--wss second_order`` upgrades the i_low half
of the election to LIBSVM's WSS2 gain score b²/a, which typically
converges in far fewer iterations — and, since every iteration costs
two kernel columns, in far fewer kernel evaluations.
``planning_ahead`` adds Glasmachers-style working-set reuse on top:
recently broadcast samples can be re-stepped with zero communication.

All three policies solve the *same* problem to the same eps-KKT
tolerance; their models agree within solver tolerance.

Run:  python examples/wss_comparison.py

The same comparison from the command line::

    repro train --dataset w7a --scale 0.006 --nprocs 2
    repro train --dataset w7a --scale 0.006 --nprocs 2 \
        --wss second_order --kernel-cache-mb 16
"""

import numpy as np

from repro import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.data import DATASETS, load_dataset
from repro.kernels import RBFKernel


def main() -> None:
    name, scale = "w7a", 0.006
    ds = load_dataset(name, scale=scale)
    entry = DATASETS[name]
    classes = np.unique(ds.y_train)
    y = np.where(ds.y_train == classes[1], 1.0, -1.0)
    params = SVMParams(
        C=entry.C,
        kernel=RBFKernel.from_sigma_sq(entry.sigma_sq),
        eps=1e-3,
        max_iter=500_000,
    )
    print(f"=== WSS policy x cache A/B on {name} x{scale} "
          f"(n={ds.X_train.shape[0]}) ===")
    header = (f"  {'policy':>15} {'cache':>6} {'iters':>6} "
              f"{'kernel evals':>13} {'elections':>10} {'reuses':>7} "
              f"{'hit rate':>9} {'beta':>10}")
    print(header)
    sweep = [
        ("mvp", 0.0),             # the historical default: 2|A|+3 a step
        ("mvp", 16.0),            # column budget: same trajectory, only
                                  # produced columns are charged
        ("second_order", 0.0),    # better elections: fewer iterations
        ("second_order", 16.0),   # both
        ("planning_ahead", 16.0),  # + zero-communication reuse
    ]
    base_evals = None
    for wss, cache_mb in sweep:
        fr = fit_parallel(
            ds.X_train, y, params,
            config=RunConfig(
                heuristic="multi5pc", nprocs=2,
                wss=wss, kernel_cache_mb=cache_mb,
            ),
        )
        tr = fr.stats.trace
        if base_evals is None:
            base_evals = fr.stats.kernel_evals
        ratio = base_evals / fr.stats.kernel_evals
        print(f"  {wss:>15} {cache_mb:>4.0f}MB {fr.iterations:>6} "
              f"{fr.stats.kernel_evals:>9} ({ratio:.2f}x) "
              f"{tr.wss_elections:>10} {tr.wss_reuses:>7} "
              f"{tr.cache_hit_rate:>9.2f} {fr.model.beta:>10.5f}")
    print("\nSame tolerance, same model (within eps); the second-order"
          "\nelection gets there in fewer, better iterations, and a"
          "\ncolumn budget charges only the columns a policy produces.")


if __name__ == "__main__":
    main()
