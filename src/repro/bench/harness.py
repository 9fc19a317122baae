"""Experiment harness.

One :func:`run_speedup_experiment` call reproduces the workflow behind
each of the paper's figures:

1. generate the dataset's synthetic stand-in at an offline-friendly
   scale;
2. run the distributed solver once per heuristic (instrumented, at
   ``measure_procs`` simulated ranks) and the libsvm-style baseline;
3. project each trace to the paper-scale problem at the paper's process
   counts, and model the libsvm-sequential / libsvm-enhanced reference
   times at paper scale;
4. return the speedup series (Figures 3-7), the reconstruction-time
   fractions (Figure 8) and accuracy numbers (Table V).

Paper-scale projection uses ``n_scale = N_paper / n_run`` and an
iteration-axis stretch anchored on the paper's reported iteration count
when available (HIGGS 34M, Forest 2.07M, MNIST 21K, real-sim 47K),
otherwise on ``n_scale`` (SMO iteration counts grow roughly linearly
with sample count).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import RunConfig
from ..core import SVMParams, fit_parallel, solve_libsvm_style
from ..core.solver import FitResult
from ..data import DatasetEntry, get_entry, load_dataset
from ..data.synthetic import Dataset
from ..kernels import RBFKernel
from ..perfmodel import MachineSpec, ProjectedTime, project_series, speedup_vs
from ..perfmodel.baseline import BaselineTime, baseline_time, paper_scale_baseline

#: the three bars of each figure: Default, Shrinking (best), Shrinking (worst)
DEFAULT_HEURISTICS: Tuple[str, ...] = ("original", "multi5pc", "single50pc")


@dataclass
class HeuristicRun:
    """One heuristic's measured run + paper-scale projections."""

    name: str
    fit: FitResult
    projections: List[ProjectedTime]
    speedups_enh: List[float]  # vs libsvm-enhanced (16 cores), paper scale
    speedups_seq: List[float]  # vs libsvm-sequential (1 core), paper scale
    speedups_vs_original: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return self.fit.iterations

    @property
    def recon_fractions(self) -> List[float]:
        return [t.recon_fraction for t in self.projections]


@dataclass
class ExperimentResult:
    """Everything a figure/table bench needs to print its rows."""

    dataset: str
    entry: DatasetEntry
    data: Dataset
    procs: List[int]
    runs: Dict[str, HeuristicRun]
    baseline_enh: BaselineTime  # paper-scale, 16 cores
    baseline_seq: BaselineTime  # paper-scale, 1 core
    baseline_run_enh: BaselineTime  # run-scale (measured counters)
    libsvm_iterations: int
    libsvm_accuracy: Optional[float]
    n_scale: float
    iteration_scale: float
    wall_seconds: float

    def run(self, name: str) -> HeuristicRun:
        return self.runs[name]

    def best_worst(self) -> Tuple[str, str]:
        """Heuristics with the highest / lowest projected speedup at the
        largest process count (excluding the no-shrinking Original)."""
        candidates = {
            k: v.speedups_enh[-1] for k, v in self.runs.items() if k != "original"
        }
        if not candidates:
            name = next(iter(self.runs))
            return name, name
        best = max(candidates, key=candidates.get)
        worst = min(candidates, key=candidates.get)
        return best, worst


def _paper_relative_heuristic(
    name: str, entry: DatasetEntry, run_iters: int, paper_iters: float
):
    """Re-place a Table II threshold at the same *relative run position*
    it occupies at paper scale.

    A ``numsamples: f`` heuristic fires at ``f·N_paper`` iterations,
    i.e. at fraction ``f·N_paper / paper_iterations`` of the paper run;
    the miniature must fire at that same fraction of *its* run or the
    figure's crossovers (e.g. MNIST's "Worst ≡ Default because the
    threshold never fires") cannot appear.  ``random: k`` thresholds are
    absolute iteration counts and are mapped the same way.
    """
    from ..core.shrinking import Heuristic, get_heuristic

    heur = get_heuristic(name)
    if not heur.shrinks:
        return heur
    paper_thresh = heur.initial_threshold(entry.paper_train)
    rel = paper_thresh / max(paper_iters, 1.0)
    ours = max(1.0, round(rel * run_iters))
    return Heuristic(
        name=heur.name,
        threshold_kind="random",
        threshold_value=ours,
        reconstruction=heur.reconstruction,
        klass=heur.klass,
        subsequent=heur.subsequent,
    )


def run_speedup_experiment(
    dataset: str,
    procs: Sequence[int],
    *,
    heuristics: Sequence[str] = DEFAULT_HEURISTICS,
    scale: Optional[float] = None,
    measure_procs: int = 1,
    machine: Optional[MachineSpec] = None,
    eps: float = 1e-3,
    max_iter: int = 2_000_000,
    paper_scale: bool = True,
    faults=None,
) -> ExperimentResult:
    """Run the full experiment for one dataset; see module docstring.

    ``faults`` forwards a deterministic fault-injection plan (spec
    string or :class:`~repro.mpi.faults.FaultPlan`) to every solver
    run — completing runs are bitwise identical to fault-free ones, so
    the figures are unchanged while the recovery paths get exercised.
    """
    t_start = time.perf_counter()
    entry = get_entry(dataset)
    data = load_dataset(dataset, scale=scale)
    machine = machine or MachineSpec.cascade()
    params = SVMParams(
        C=entry.C, kernel=RBFKernel(entry.gamma), eps=eps, max_iter=max_iter
    )

    # the Original run pins the iteration budget; with the deterministic
    # engine every safe-shrinking heuristic replays the same sequence
    run_cfg = RunConfig(
        heuristic="original", nprocs=measure_procs, machine=machine,
        faults=faults,
    )
    origin_fit = fit_parallel(data.X_train, data.y_train, params, config=run_cfg)
    paper_iters_est = (
        float(entry.facts.iterations)
        if entry.facts.iterations
        else origin_fit.iterations * (entry.paper_train / data.n_train)
    )

    fits: Dict[str, FitResult] = {}
    for h in heuristics:
        if h == "original":
            fits[h] = origin_fit
            continue
        heur = (
            _paper_relative_heuristic(
                h, entry, origin_fit.iterations, paper_iters_est
            )
            if paper_scale
            else h
        )
        fits[h] = fit_parallel(
            data.X_train, data.y_train, params,
            config=run_cfg.replace(heuristic=heur),
        )
    if "original" not in fits:
        fits["original"] = origin_fit

    lib = solve_libsvm_style(data.X_train, data.y_train, params)
    avg_nnz = data.X_train.avg_row_nnz
    baseline_run_enh = baseline_time(lib, data.n_train, avg_nnz, machine, ncores=16)

    if paper_scale:
        n_scale = entry.paper_train / data.n_train
        origin = fits.get("original", next(iter(fits.values())))
        if entry.facts.iterations:
            iteration_scale = entry.facts.iterations / max(origin.iterations, 1)
        else:
            iteration_scale = n_scale
        n_paper = entry.paper_train
    else:
        n_scale = 1.0
        iteration_scale = 1.0
        n_paper = data.n_train

    lib_iters_paper = lib.iterations * iteration_scale
    baseline_enh = paper_scale_baseline(
        lib_iters_paper, n_paper, avg_nnz, machine, ncores=16
    )
    baseline_seq = paper_scale_baseline(
        lib_iters_paper, n_paper, avg_nnz, machine, ncores=1
    )

    runs: Dict[str, HeuristicRun] = {}
    for h, fr in fits.items():
        proj = project_series(
            fr.trace, machine, list(procs),
            n_scale=n_scale, iteration_scale=iteration_scale,
        )
        runs[h] = HeuristicRun(
            name=h,
            fit=fr,
            projections=proj,
            speedups_enh=speedup_vs(proj, baseline_enh.total),
            speedups_seq=speedup_vs(proj, baseline_seq.total),
        )
    if "original" in runs:
        orig = runs["original"].projections
        for h, r in runs.items():
            r.speedups_vs_original = [
                o.total / t.total for o, t in zip(orig, r.projections)
            ]

    lib_acc: Optional[float] = None
    if data.X_test is not None:
        from ..core.model import SVMModel

        sv = np.flatnonzero(lib.alpha > 0)
        lib_model = SVMModel(
            sv_X=data.X_train.take_rows(sv),
            sv_coef=lib.alpha[sv] * data.y_train[sv],
            sv_indices=sv,
            beta=lib.beta,
            kernel=params.kernel,
        )
        lib_acc = lib_model.accuracy(data.X_test, data.y_test)

    return ExperimentResult(
        dataset=dataset,
        entry=entry,
        data=data,
        procs=list(procs),
        runs=runs,
        baseline_enh=baseline_enh,
        baseline_seq=baseline_seq,
        baseline_run_enh=baseline_run_enh,
        libsvm_iterations=lib.iterations,
        libsvm_accuracy=lib_acc,
        n_scale=n_scale,
        iteration_scale=iteration_scale,
        wall_seconds=time.perf_counter() - t_start,
    )


def run_accuracy_experiment(
    dataset: str,
    *,
    heuristic: str = "multi5pc",
    scale: Optional[float] = None,
    nprocs: int = 2,
    machine: Optional[MachineSpec] = None,
    eps: float = 1e-3,
    max_iter: int = 2_000_000,
    faults=None,
) -> Dict[str, float]:
    """Table V row: test accuracy of the shrinking solver vs the
    libsvm-style baseline on the same train/test split."""
    entry = get_entry(dataset)
    data = load_dataset(dataset, scale=scale)
    if data.X_test is None:
        raise ValueError(f"dataset {dataset!r} has no test split")
    params = SVMParams(
        C=entry.C, kernel=RBFKernel(entry.gamma), eps=eps, max_iter=max_iter
    )
    fr = fit_parallel(
        data.X_train, data.y_train, params,
        config=RunConfig(
            heuristic=heuristic, nprocs=nprocs, machine=machine, faults=faults
        ),
    )
    ours = fr.model.accuracy(data.X_test, data.y_test)

    lib = solve_libsvm_style(data.X_train, data.y_train, params)
    from ..core.model import SVMModel

    sv = np.flatnonzero(lib.alpha > 0)
    lib_model = SVMModel(
        sv_X=data.X_train.take_rows(sv),
        sv_coef=lib.alpha[sv] * data.y_train[sv],
        sv_indices=sv,
        beta=lib.beta,
        kernel=params.kernel,
    )
    theirs = lib_model.accuracy(data.X_test, data.y_test)
    return {
        "dataset": dataset,
        "ours": 100.0 * ours,
        "libsvm": 100.0 * theirs,
        "paper_ours": entry.facts.test_accuracy,
        "paper_libsvm": entry.facts.test_accuracy_libsvm,
    }
