"""Command-line interface.

::

    python -m repro train   --dataset mnist --heuristic multi5pc --nprocs 8
    python -m repro train   --train-file data.libsvm --C 10 --sigma-sq 4
    python -m repro predict --model model.json --data test.libsvm
    python -m repro serve-bench [--quick] [--fleet] [--out BENCH_serve.json]
    python -m repro stream-bench [--quick] [--out BENCH_stream.json]
    python -m repro info
    python -m repro bench   fig6 table5

``train`` accepts either a registry dataset (synthetic stand-in for one
of the paper's ten datasets) or a libsvm-format file; it prints the
solver statistics the paper reports (iterations, SV count, shrink and
reconstruction activity, modeled time on the Cascade-like cluster) and
can persist the trained model as JSON.

The run-time knobs (``--nprocs``, ``--heuristic``, ``--comm``,
``--wss``, ``--kernel-cache-mb``, ``--dc``, ``--faults``, ``--machine``)
are registered once by :func:`add_runconfig_args` and shared verbatim
by ``train``, ``serve-bench`` and ``stream-bench``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .config import RunConfig
from .core import HEURISTICS, SVC
from .core.model import load_model, save_model
from .data import DATASETS, load_dataset
from .perfmodel import MachineSpec
from .sparse import load_libsvm


def _machine(name: str) -> MachineSpec:
    if name == "cascade":
        return MachineSpec.cascade()
    if name == "python-host":
        return MachineSpec.python_host(calibrate=True)
    if name == "multinode" or name.startswith("multinode:"):
        # "multinode" = 16 ranks/node (the Cascade node width);
        # "multinode:<k>" places k ranks per node
        rpn = 16
        if ":" in name:
            try:
                rpn = int(name.split(":", 1)[1])
            except ValueError:
                raise SystemExit(f"bad ranks-per-node in machine {name!r}")
        return MachineSpec.multinode(ranks_per_node=rpn)
    raise SystemExit(
        f"unknown machine {name!r} (cascade | python-host | "
        f"multinode | multinode:<ranks_per_node>)"
    )


def add_runconfig_args(parser) -> None:
    """Register the shared :class:`RunConfig` flags on ``parser``.

    ``train``, ``serve-bench`` and ``stream-bench`` all call this, so
    the run-knob surface stays flag-identical across subcommands; turn
    the parsed namespace back into a config with
    :func:`runconfig_from_args`.
    """
    parser.add_argument("--nprocs", type=int, default=1)
    parser.add_argument("--machine", default="cascade",
                        help="cascade | python-host | multinode | "
                             "multinode:<ranks_per_node>")
    parser.add_argument("--heuristic", default="multi5pc",
                        choices=sorted(HEURISTICS))
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault-injection spec for the "
                             "simulated runtime, e.g. "
                             "'seed=7;drop:src=0,dest=1,tag=3,nth=1' "
                             "(kinds: delay drop dup corrupt stall kill)")
    parser.add_argument("--comm", default=None,
                        choices=("flat", "hierarchical"),
                        help="collective suite (default: flat)")
    parser.add_argument("--wss", default=None,
                        choices=("mvp", "second_order", "planning_ahead"),
                        help="working-set selection policy (default: mvp)")
    parser.add_argument("--kernel-cache-mb", type=float, default=None,
                        metavar="MB",
                        help="per-rank kernel-column budget in MiB: an "
                             "LRU that charges each column it produces "
                             "(default: 0 = unbounded, charged as if "
                             "every iteration recomputed its two columns)")
    parser.add_argument("--dc", default=None, metavar="SPEC",
                        help="divide-and-conquer outer loop: cluster count "
                             "('4') or knobs ('clusters=4,levels=2,seed=7'); "
                             "the sub-duals warm-start the exact solve")


def runconfig_from_args(args) -> RunConfig:
    """Build a :class:`RunConfig` from :func:`add_runconfig_args` flags."""
    return RunConfig(
        nprocs=args.nprocs,
        heuristic=args.heuristic,
        comm=args.comm,
        machine=_machine(args.machine),
        faults=args.faults,
        dc=args.dc,
        wss=args.wss,
        kernel_cache_mb=args.kernel_cache_mb or 0.0,
    )


def _add_train(sub) -> None:
    p = sub.add_parser("train", help="train a distributed shrinking SVM")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=sorted(DATASETS),
                     help="registry dataset (synthetic stand-in)")
    src.add_argument("--train-file", help="libsvm-format training file")
    p.add_argument("--test-file", help="libsvm-format test file")
    p.add_argument("--scale", type=float, default=None,
                   help="registry dataset size multiplier")
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--sigma-sq", type=float, default=None)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=10_000_000)
    add_runconfig_args(p)
    p.add_argument("--model-out", help="write the trained model (JSON)")


def _add_predict(sub) -> None:
    p = sub.add_parser("predict", help="apply a saved model")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--data", required=True, help="libsvm-format input")
    p.add_argument("--nprocs", type=int, default=1)
    p.add_argument("--scores", action="store_true",
                   help="print decision values instead of ±1 labels")


def _add_serve_bench(sub) -> None:
    p = sub.add_parser(
        "serve-bench",
        help="run the microbatched-serving benchmark sweep",
    )
    p.add_argument("--quick", action="store_true",
                   help="small request count, skip the speedup bars "
                        "(bitwise-equality checks still run)")
    p.add_argument("--out", default=None,
                   help="report path (default: ./BENCH_serve.json, or "
                        "./BENCH_serve_fleet.json with --fleet)")
    p.add_argument("--fleet", action="store_true",
                   help="run the replicated-fleet benchmark instead "
                        "(kill-mid-traffic recovery + hot-swap under load)")
    p.add_argument("--replicas", type=int, default=None,
                   help="with --fleet: restrict the sweep to one replica "
                        "count")
    add_runconfig_args(p)


def _add_stream_bench(sub) -> None:
    p = sub.add_parser(
        "stream-bench",
        help="run the incremental-refit-vs-cold-retrain drift benchmark",
    )
    p.add_argument("--quick", action="store_true",
                   help="short stream, skip the eval-reduction bar "
                        "(every refit is still certified equivalent)")
    p.add_argument("--out", default=None,
                   help="report path (default: ./BENCH_stream.json)")
    add_runconfig_args(p)


def _add_info(sub) -> None:
    sub.add_parser("info", help="list datasets and heuristics")


def _add_bench(sub) -> None:
    p = sub.add_parser("bench", help="run paper experiments")
    p.add_argument("ids", nargs="*", help="experiment ids (default: all)")


def cmd_train(args) -> int:
    if args.dataset:
        entry = DATASETS[args.dataset]
        ds = load_dataset(args.dataset, scale=args.scale)
        X_train, y_train = ds.X_train, ds.y_train
        X_test, y_test = ds.X_test, ds.y_test
        C = args.C if args.C is not None else entry.C
        sigma_sq = args.sigma_sq if args.sigma_sq is not None else (
            None if args.gamma is not None else entry.sigma_sq
        )
        print(ds.describe())
    else:
        X_train, y_train = load_libsvm(args.train_file)
        X_test = y_test = None
        C = args.C if args.C is not None else 1.0
        sigma_sq = args.sigma_sq
        print(f"loaded {args.train_file}: n={X_train.shape[0]} "
              f"d={X_train.shape[1]} density={X_train.density:.4f}")
    if args.test_file:
        n_feat = X_train.shape[1]
        X_test, y_test = load_libsvm(args.test_file, n_features=n_feat)

    run_config = runconfig_from_args(args)
    clf = SVC(
        C=C,
        gamma=args.gamma,
        sigma_sq=sigma_sq,
        eps=args.eps,
        max_iter=args.max_iter,
        config=run_config,
    )
    t0 = time.perf_counter()
    clf.fit(X_train, y_train)
    wall = time.perf_counter() - t0

    fault_stats = clf.fit_result_.spmd.fault_stats
    if fault_stats is not None:
        fired = {k: v for k, v in fault_stats["stats"].items() if v}
        print(f"fault injection: plan [{fault_stats['plan']}] "
              f"fired {fired or 'nothing'}")
    stats = clf.fit_result_.stats
    trace = clf.fit_result_.trace
    dc_stats = clf.fit_result_.dc
    if dc_stats is not None:
        for ls in dc_stats.levels:
            sizes = (
                f"sizes {min(ls.cluster_sizes)}..{max(ls.cluster_sizes)}, "
                if ls.cluster_sizes
                else ""
            )
            print(
                f"dc level {ls.level}: {ls.n_clusters} clusters ({sizes}"
                f"{ls.n_rounds} rounds, {ls.iterations} sub-iterations), "
                f"{ls.vtime * 1e3:.2f} ms modeled makespan"
            )
        print(
            f"dc outer loop [{dc_stats.config}]: gap {dc_stats.final_gap:.2e} "
            f"after {dc_stats.n_rounds} rounds, "
            f"{dc_stats.outer_vtime * 1e3:.2f} ms modeled, "
            f"refinement below starts warm"
        )
    print(
        f"trained in {wall:.2f}s wall "
        f"({stats.vtime * 1e3:.2f} ms modeled on {args.machine} "
        f"x {args.nprocs} ranks)"
    )
    print(
        f"iterations={stats.iterations} SVs={stats.n_sv} "
        f"shrunk={trace.total_shrunk()} "
        f"reconstructions={trace.n_reconstructions()} "
        f"messages={stats.messages} MB={stats.bytes_sent / 1e6:.2f} "
        f"columns={trace.columns_produced} carried={trace.columns_carried} "
        f"pair-memo-hits={trace.pair_memo_hits}"
    )
    if stats.wss != "mvp" or trace.cache_hits or trace.cache_misses:
        cache = ""
        if trace.cache_hits or trace.cache_misses:
            cache = (f" cache hits={trace.cache_hits} "
                     f"misses={trace.cache_misses} "
                     f"hit-rate={trace.cache_hit_rate:.2f}")
        print(f"wss={stats.wss} elections={trace.wss_elections} "
              f"reuses={trace.wss_reuses}{cache}")
    print(f"train accuracy: {clf.score(X_train, y_train):.4f}")
    if X_test is not None and y_test is not None and len(y_test):
        print(f"test accuracy:  {clf.score(X_test, y_test):.4f}")
    if args.model_out:
        save_model(clf.model_, args.model_out)
        print(f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    X, _ = load_libsvm(args.data, n_features=model.sv_X.shape[1])
    from .core import decision_function_parallel

    out = decision_function_parallel(
        model, X, config=RunConfig(nprocs=args.nprocs)
    )
    values = out.decision_values if args.scores else out.labels
    for v in values:
        print(f"{v:.6g}" if args.scores else f"{int(v):+d}")
    print(
        f"# {X.shape[0]} predictions, modeled time "
        f"{out.vtime * 1e3:.3f} ms on {args.nprocs} ranks",
        file=sys.stderr,
    )
    return 0


def cmd_info(_args) -> int:
    print("datasets (synthetic stand-ins for the paper's Table III):")
    for name, e in DATASETS.items():
        print(
            f"  {name:>10}: paper N={e.paper_train:>9,} d={e.n_features:>9,} "
            f"C={e.C:<4g} sigma^2={e.sigma_sq:<4g} "
            f"default run n={max(16, int(e.paper_train * e.default_scale))}"
        )
    print("\nshrinking heuristics (Table II):")
    for name, h in HEURISTICS.items():
        thresh = (
            "never fires"
            if not h.shrinks
            else f"{h.threshold_kind}={h.threshold_value:g}"
        )
        print(f"  {name:>12}: {thresh:<18} reconstruction={h.reconstruction}")
    return 0


def cmd_serve_bench(args) -> int:
    import json
    from pathlib import Path

    from .serve import benchmark as B

    cfg = runconfig_from_args(args)
    if args.fleet:
        report = B.run_fleet_bench(quick=args.quick, config=cfg)
        if args.replicas is not None:
            report["scenarios"] = [
                s for s in report["scenarios"]
                if s["replicas"] == args.replicas
            ]
        print(B.format_fleet_report(report))
        B.check_fleet_bars(report)
        default_out = "BENCH_serve_fleet.json"
    else:
        report = B.run_serve_bench(quick=args.quick, config=cfg)
        print(B.format_report(report))
        if not args.quick:
            B.check_bars(report)
        default_out = "BENCH_serve.json"
    out = Path(args.out if args.out is not None else default_out)
    # allow_nan=False: the report convention maps non-finite floats to
    # null, so strict JSON must round-trip (satellite bugfix guarantee)
    out.write_text(
        json.dumps(report, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out}")
    return 0


def cmd_stream_bench(args) -> int:
    import json
    from pathlib import Path

    from .stream import benchmark as SB

    report = SB.run_stream_bench(
        quick=args.quick, config=runconfig_from_args(args)
    )
    print(SB.format_report(report))
    if not args.quick:
        SB.check_bars(report)
    out = Path(args.out if args.out is not None else "BENCH_stream.json")
    out.write_text(
        json.dumps(report, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out}")
    return 0


def cmd_bench(args) -> int:
    from .bench.__main__ import main as bench_main

    return bench_main(args.ids)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed shrinking SVM (CLUSTER 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_train(sub)
    _add_predict(sub)
    _add_serve_bench(sub)
    _add_stream_bench(sub)
    _add_info(sub)
    _add_bench(sub)
    args = parser.parse_args(argv)
    return {
        "train": cmd_train,
        "predict": cmd_predict,
        "serve-bench": cmd_serve_bench,
        "stream-bench": cmd_stream_bench,
        "info": cmd_info,
        "bench": cmd_bench,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
