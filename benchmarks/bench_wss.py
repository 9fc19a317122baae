"""Benchmark: working-set-selection policies x kernel-column budget.

End-to-end distributed solves of three registry miniatures, swept over
the WSS policy registry (``mvp`` / ``second_order`` / ``planning_ahead``,
see :mod:`repro.core.wss_policies`) and a range of per-rank
kernel-column budgets.  The sweep demonstrates the point of the
second-order election: fewer, better iterations, and hence fewer kernel
evaluations, at the price of one extra typed MAXLOC allreduce per
iteration.  The third miniature, cod-rna at ten times its registry C,
is the large-C regime in which Glasmachers (arXiv:1307.8305) reports
planning-ahead paying off.

Every policy keeps its columns in the solver's one column store.  At
budget 0 each iteration is charged Algorithm 2's 2·|A|+3 kernel
evaluations; under a positive budget the store is an LRU of that many
bytes per rank and each column it produces is charged.  So the budget-0
rows compare the policies by iterations, and the rows of one positive
budget compare them at an equal cache.

Invariants asserted on every run:

- every policy with a column budget is bitwise-identical (alpha, beta,
  iteration count) to the same policy without one — the budget only
  changes how often a column is produced, never which column is asked
  for;
- ``second_order`` reduces total kernel evaluations by >= 1.3x against
  ``mvp`` at budget 0 on at least one miniature (the acceptance bar;
  w7a clears it);
- ``planning_ahead``'s modeled vtime at budget 0 is at most 0.9x
  ``second_order``'s on at least one miniature (the bar that keeps the
  policy; large-C cod-rna clears it);
- in the full sweep, the middle budget evicts a column that is asked
  for again: ``mvp`` produces more columns there than at the roomy
  budget, on every miniature.

The script writes ``BENCH_wss.json`` at the repo root (``--out`` writes
elsewhere); the pytest entry writes its report under pytest's
``tmp_path``.  Run either way::

    python benchmarks/bench_wss.py [--quick] [--out PATH]
    pytest benchmarks/bench_wss.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.data import DATASETS, load_dataset
from repro.kernels import RBFKernel

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_wss.json"

#: (dataset, scale, C): C ``None`` keeps the registry's C
MINIATURES = [
    ("mushrooms", 0.02, None),
    ("w7a", 0.006, None),
    ("cod-rna", 0.006, 320.0),
]
POLICIES = ["mvp", "second_order", "planning_ahead"]
#: 0 (unbounded, Algorithm 2 accounting), ~12 columns of a mushrooms
#: rank (evicts), and room for every column of both miniatures
BUDGETS_MB = [0.0, 0.0078125, 4.0]
QUICK_BUDGETS_MB = [0.0, 4.0]
HEURISTIC = "multi5pc"
NPROCS = 2
EVAL_REDUCTION_BAR = 1.3
#: planning_ahead / second_order modeled vtime at budget 0
PLANNING_AHEAD_BAR = 0.9


def _problem(name: str, scale: float, C=None):
    ds = load_dataset(name, scale=scale)
    entry = DATASETS[name]
    classes = np.unique(ds.y_train)
    y = np.where(ds.y_train == classes[1], 1.0, -1.0)
    params = SVMParams(
        C=entry.C if C is None else C,
        kernel=RBFKernel.from_sigma_sq(entry.sigma_sq),
        eps=1e-3,
        max_iter=500_000,
    )
    return ds.X_train, y, params


def _run(X, y, params, wss: str, cache_mb: float):
    t0 = time.perf_counter()
    fr = fit_parallel(
        X,
        y,
        params,
        config=RunConfig(
            heuristic=HEURISTIC,
            nprocs=NPROCS,
            wss=wss,
            kernel_cache_mb=cache_mb,
        ),
    )
    wall = time.perf_counter() - t0
    tr = fr.stats.trace
    row = {
        "wss": wss,
        "cache_mb": cache_mb,
        "iterations": fr.iterations,
        "kernel_evals": fr.stats.kernel_evals,
        "wall_seconds": wall,
        "vtime_seconds": fr.vtime,
        "beta": fr.model.beta,
        "wss_elections": tr.wss_elections,
        "wss_reuses": tr.wss_reuses,
        "cache_hits": tr.cache_hits,
        "cache_misses": tr.cache_misses,
        "cache_hit_rate": tr.cache_hit_rate,
    }
    return fr, row


def run_bench(quick: bool = False, out: Path = OUT_PATH) -> dict:
    budgets = QUICK_BUDGETS_MB if quick else BUDGETS_MB
    datasets = []
    bar_cleared_on = []
    planning_ahead_cleared_on = []
    for name, scale, C in MINIATURES:
        X, y, params = _problem(name, scale, C)
        rows = []
        baseline = {}
        for wss in POLICIES:
            for cache_mb in budgets:
                fr, row = _run(X, y, params, wss, cache_mb)
                rows.append(row)
                if cache_mb == 0.0:
                    baseline[wss] = fr
                    continue
                # the budget must never change the trajectory
                ref = baseline[wss]
                if not np.array_equal(fr.alpha, ref.alpha):
                    raise AssertionError(
                        f"{name}: {wss} cache={cache_mb}MB changed alpha"
                    )
                if fr.model.beta != ref.model.beta:
                    raise AssertionError(
                        f"{name}: {wss} cache={cache_mb}MB changed beta"
                    )
                if fr.iterations != ref.iterations:
                    raise AssertionError(
                        f"{name}: {wss} cache={cache_mb}MB changed "
                        "iteration count"
                    )
        mvp_evals = baseline["mvp"].stats.kernel_evals
        so_evals = baseline["second_order"].stats.kernel_evals
        reduction = mvp_evals / so_evals if so_evals else float("inf")
        if reduction >= EVAL_REDUCTION_BAR:
            bar_cleared_on.append(name)
        vtime_ratio = (
            baseline["planning_ahead"].vtime / baseline["second_order"].vtime
        )
        if vtime_ratio <= PLANNING_AHEAD_BAR:
            planning_ahead_cleared_on.append(name)
        by = {(r["wss"], r["cache_mb"]): r for r in rows}
        if len(budgets) > 2:
            middle, roomy = budgets[-2], budgets[-1]
            if (by[("mvp", middle)]["cache_misses"]
                    <= by[("mvp", roomy)]["cache_misses"]):
                raise AssertionError(
                    f"{name}: a {middle}MB budget evicted no column that "
                    "was asked for again"
                )
        datasets.append(
            {
                "dataset": name,
                "scale": scale,
                "C": params.C,
                "n": int(X.shape[0]),
                "d": int(X.shape[1]),
                "eval_reduction_second_order": reduction,
                "vtime_ratio_planning_ahead": vtime_ratio,
                # each policy's kernel evals under one equal budget
                "kernel_evals_by_budget": {
                    f"{mb:g}": {
                        wss: by[(wss, mb)]["kernel_evals"] for wss in POLICIES
                    }
                    for mb in budgets
                },
                "runs": rows,
            }
        )
    report = {
        "nprocs": NPROCS,
        "heuristic": HEURISTIC,
        "policies": POLICIES,
        "cache_budgets_mb": budgets,
        "eval_reduction_bar": EVAL_REDUCTION_BAR,
        "bar_cleared_on": bar_cleared_on,
        "planning_ahead_bar": PLANNING_AHEAD_BAR,
        "planning_ahead_cleared_on": planning_ahead_cleared_on,
        "datasets": datasets,
    }
    if not bar_cleared_on:
        raise AssertionError(
            f"second_order cleared the {EVAL_REDUCTION_BAR}x kernel-eval "
            "reduction bar on no miniature: "
            + ", ".join(
                f"{d['dataset']}={d['eval_reduction_second_order']:.2f}x"
                for d in datasets
            )
        )
    if not planning_ahead_cleared_on:
        raise AssertionError(
            f"planning_ahead cleared the {PLANNING_AHEAD_BAR}x modeled-vtime "
            "bar against second_order on no miniature: "
            + ", ".join(
                f"{d['dataset']}={d['vtime_ratio_planning_ahead']:.3f}x"
                for d in datasets
            )
        )
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_wss_policy_sweep(tmp_path):
    report = run_bench(out=tmp_path / OUT_PATH.name)
    assert report["bar_cleared_on"]  # >= 1 miniature clears the bar
    assert report["planning_ahead_cleared_on"]
    for d in report["datasets"]:
        by = {(r["wss"], r["cache_mb"]): r for r in d["runs"]}
        # second-order elections were actually exercised
        assert by[("second_order", 0.0)]["wss_elections"] > 0
        # the column store counted its traffic under a real budget
        assert by[("second_order", 4.0)]["cache_hits"] > 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="two column budgets instead of three")
    ap.add_argument("--out", default=str(OUT_PATH),
                    help="report path (default: repo root)")
    args = ap.parse_args(argv)

    out = Path(args.out)
    report = run_bench(quick=args.quick, out=out)
    print(json.dumps(report, indent=2))
    for d in report["datasets"]:
        print(
            f"\n{d['dataset']} (n={d['n']}): second_order uses "
            f"{d['eval_reduction_second_order']:.2f}x fewer kernel evals "
            f"than mvp at budget 0; planning_ahead's modeled vtime is "
            f"{d['vtime_ratio_planning_ahead']:.3f}x second_order's"
        )
        for mb, evals in d["kernel_evals_by_budget"].items():
            print(f"  kernel evals at {mb} MiB: " + ", ".join(
                f"{wss} {n}" for wss, n in evals.items()
            ))
    print(f"bar (>= {report['eval_reduction_bar']}x) cleared on: "
          f"{', '.join(report['bar_cleared_on'])}")
    print(f"planning_ahead bar (<= {report['planning_ahead_bar']}x vtime) "
          f"cleared on: {', '.join(report['planning_ahead_cleared_on'])}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
