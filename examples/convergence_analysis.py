"""Convergence diagnostics: optimality gap and active-set trajectories.

Shows the dynamics behind the paper's §V-D analysis: the KKT gap
(β_low − β_up) decays as SMO progresses, shrink passes carve the active
set down, and reconstructions snap it back before the final certified
convergence.  Also prints the simulated MPI job's per-operation
communication summary.

Run:  python examples/convergence_analysis.py [dataset]
"""

import sys

import numpy as np

from repro import RunConfig
from repro.bench.report import convergence_curve
from repro.core import SVMParams, fit_parallel
from repro.data import get_entry, load_dataset
from repro.kernels import RBFKernel
from repro.perfmodel import validate_projector, validation_report


def main(dataset: str = "forest") -> None:
    entry = get_entry(dataset)
    ds = load_dataset(dataset)
    params = SVMParams(
        C=entry.C, kernel=RBFKernel(entry.gamma), eps=1e-3, max_iter=2_000_000
    )
    fr = fit_parallel(
        ds.X_train, ds.y_train, params,
        config=RunConfig(heuristic="multi5pc", nprocs=4),
    )
    tr = fr.trace

    print(convergence_curve(
        tr.gap_history,
        title=f"{dataset}: optimality gap (log scale), multi5pc, 4 ranks",
    ))
    print()

    # active-set trajectory with shrink / reconstruction markers
    ac = tr.active_counts
    samples = np.linspace(0, ac.size - 1, 16).astype(int)
    print("active-set size over the run:")
    print("  iter: " + " ".join(f"{i:>5}" for i in samples))
    print("  size: " + " ".join(f"{ac[i]:>5}" for i in samples))
    print(f"  shrink passes at iterations {tr.shrink_iters} "
          f"(removed {tr.shrunk_per_event})")
    print(f"  reconstructions at iterations "
          f"{sorted({e.iteration for e in tr.recon_events})}")
    print()

    # where the cost model says the time would go on the real machine
    print(validation_report(validate_projector(n=150, ps=(1, 2, 4, 8))))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "forest")
