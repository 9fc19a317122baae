"""The streaming benchmark: incremental refit vs cold retrain.

Drives an :class:`~repro.stream.IncrementalSVC` over a seeded
rotating-boundary drift stream with ``certify=True``, so every
``partial_fit`` is proven tolerance-equivalent to a cold full solve by
:func:`~repro.core.equiv.assert_model_equiv` — and the cold solve's
iteration/kernel-eval ledger becomes the baseline the incremental path
is charged against.  The headline number is the cumulative kernel-eval
reduction (cold / incremental, γ-seeding slabs included); the
acceptance bar is ≥ 2× over a ≥ 10-batch stream.

A second part replays the final stream step uncertified to harvest its
warm and cold solve traces, then prices the refresh loop at cluster
scale with :func:`~repro.perfmodel.project_stream` (seed slab + warm
refit + fleet re-shard vs cold retrain, p = 16..256).

``repro stream-bench`` and ``benchmarks/bench_stream.py`` both route
here; the report lands in ``BENCH_stream.json``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

from ..config import RunConfig
from ..core.solver import fit_parallel
from ..data.synthetic import DriftStreamSpec, drift_stream
from ..perfmodel import MachineSpec, project_stream
from .incremental import IncrementalSVC
from .scenario import RefreshPolicy, StreamScenario, run_stream

#: mild rotating drift: slow boundary rotation, low label noise — the
#: regime where warm-started refits repay their seeding cost the most
SPEC = DriftStreamSpec(
    n_batches=12, batch_size=40, n_features=3, drift="rotate",
    rotate_per_batch=3.1415 / 48, noise=0.1, seed=0,
)
QUICK_SPEC = DriftStreamSpec(
    n_batches=5, batch_size=32, n_features=3, drift="rotate",
    rotate_per_batch=3.1415 / 48, noise=0.1, seed=0,
)

C, GAMMA, EPS = 10.0, 0.5, 1e-3
NPROCS = 2
#: the acceptance bar: cumulative kernel evals, cold / incremental
EVAL_REDUCTION_BAR = 2.0
#: the bar only counts on streams at least this long
MIN_BATCHES = 10

#: the projected-scaling sweep (16 ranks/node multi-node machine)
SWEEP_PS = (16, 64, 256)
QUICK_PS = (16, 64)
RANKS_PER_NODE = 16


def _projection_sweep(spec: DriftStreamSpec, base: RunConfig, ps) -> dict:
    """Replay the stream uncertified, harvest the last step's warm and
    cold traces, and price one refresh step at each ``p``."""
    batches = drift_stream(spec)
    clf = IncrementalSVC(C=C, gamma=GAMMA, eps=EPS, config=base)
    for Xb, yb in batches:
        clf.partial_fit(Xb, yb)
    warm = clf.fit_result_
    n_sv = clf.model_.n_sv
    cold = fit_parallel(clf.X_, clf.y_, clf._params(), config=base)
    machine = MachineSpec.multinode(ranks_per_node=RANKS_PER_NODE)
    avg_nnz = clf.X_.avg_row_nnz

    sweep = []
    for p in ps:
        proj = project_stream(
            warm.trace, cold.trace, machine, p,
            n_new=spec.batch_size, n_sv=n_sv, avg_nnz=avg_nnz,
        )
        sweep.append({
            "p": p,
            "seed_ms": 1e3 * proj.seed_time,
            "warm_refit_ms": 1e3 * proj.refit_time,
            "reshard_ms": 1e3 * proj.reshard_time,
            "time_to_refresh_ms": 1e3 * proj.time_to_refresh,
            "cold_ms": 1e3 * proj.cold_time,
            "speedup": proj.speedup,
        })
    return {
        "machine": "multinode",
        "ranks_per_node": RANKS_PER_NODE,
        "warm_iterations": warm.iterations,
        "cold_iterations": cold.iterations,
        "n_sv": n_sv,
        "sweep": sweep,
    }


def run_stream_bench(
    quick: bool = False, config: Optional[RunConfig] = None
) -> dict:
    """Run the certified drift scenario plus the projection sweep.

    ``config`` carries run knobs shared by every solve (machine, comm,
    wss, ...); the benchmark's fixed ``nprocs`` overrides its field.
    """
    base = (config or RunConfig()).replace(nprocs=NPROCS)
    spec = QUICK_SPEC if quick else SPEC
    scenario = StreamScenario(
        spec=spec, C=C, gamma=GAMMA, eps=EPS,
        policy=RefreshPolicy(every_k=1),
        config=base, certify=True,
    )
    report = run_stream(scenario)
    uncertified = [
        r["batch"] for r in report.refits if not r["certified"]
    ]
    if uncertified:
        raise AssertionError(
            f"refits {uncertified} missed equivalence certification"
        )
    projection = _projection_sweep(
        spec, base, QUICK_PS if quick else SWEEP_PS
    )
    return {
        "bench": "stream",
        "quick": quick,
        "spec": asdict(spec),
        "scenario": {"C": C, "gamma": GAMMA, "eps": EPS, "nprocs": NPROCS,
                     "policy": report.policy},
        "eval_reduction_bar": EVAL_REDUCTION_BAR,
        "min_batches": MIN_BATCHES,
        "certified_refits": len(report.refits),
        "stream": report.to_dict(),
        "projection": projection,
    }


def check_bars(report: dict) -> None:
    """Assert the acceptance bars over a finished report."""
    stream = report["stream"]
    if stream["n_batches"] < report["min_batches"]:
        raise AssertionError(
            f"stream too short for the bar: {stream['n_batches']} batches "
            f"< {report['min_batches']}"
        )
    reduction = stream["eval_reduction"]
    if reduction is None:
        raise AssertionError(
            "no certified cold baseline — eval reduction undefined"
        )
    if reduction < report["eval_reduction_bar"]:
        raise AssertionError(
            f"kernel-eval reduction {reduction:.2f}x below the "
            f"{report['eval_reduction_bar']}x bar "
            f"(incremental {stream['cumulative_kernel_evals']:,} vs "
            f"cold {stream['cumulative_cold_kernel_evals']:,})"
        )
    for row in report["projection"]["sweep"]:
        if row["speedup"] <= 1.0:
            raise AssertionError(
                f"projected warm refresh loses to cold retrain at "
                f"p={row['p']}: {row['speedup']:.2f}x"
            )


def format_report(report: dict) -> str:
    stream = report["stream"]
    spec = report["spec"]
    lines = [
        f"incremental refit vs cold retrain "
        f"({spec['drift']} drift, {stream['n_batches']} batches x "
        f"{stream['batch_size']} rows, simulated p={report['scenario']['nprocs']}, "
        f"every refit certified):",
        f"  kernel evals: incremental {stream['cumulative_kernel_evals']:>10,} "
        f"(seeding included)",
        f"                cold        "
        f"{stream['cumulative_cold_kernel_evals'] or 0:>10,}",
        f"  eval reduction: {stream['eval_reduction']:.2f}x "
        f"(bar {report['eval_reduction_bar']}x on >= "
        f"{report['min_batches']} batches)",
        f"  refreshes: {stream['refreshes']}  final SVs: "
        f"{stream['final_n_sv']}  mean prequential accuracy: "
        f"{stream['mean_prequential_accuracy']:.3f}",
        "",
        "  accuracy over time (served model, scored before training):",
        "    " + " ".join(
            "--" if a is None else f"{a:.2f}"
            for a in stream["accuracy_over_time"]
        ),
        "",
        f"projected refresh step, {report['projection']['machine']} "
        f"({report['projection']['ranks_per_node']} ranks/node), "
        f"{report['projection']['n_sv']} SVs:",
        f"  {'p':>5} {'seed':>8} {'refit':>8} {'reshard':>8} "
        f"{'refresh':>8} {'cold':>8} {'speedup':>8}",
    ]
    for r in report["projection"]["sweep"]:
        lines.append(
            f"  {r['p']:>5} {r['seed_ms']:>6.2f}ms {r['warm_refit_ms']:>6.2f}ms "
            f"{r['reshard_ms']:>6.2f}ms {r['time_to_refresh_ms']:>6.2f}ms "
            f"{r['cold_ms']:>6.2f}ms {r['speedup']:>7.2f}x"
        )
    return "\n".join(lines)
