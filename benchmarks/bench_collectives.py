"""Flat-vs-hierarchical collective scaling (``BENCH_collectives.json``).

The trace-driven projector prices one solve trace at cluster scale on a
multi-node machine (16 ranks/node, Cascade-like inter-node link, ~2×
faster intra-node link), under the flat suite and under the two-level
hierarchical suite.  Reported per scale: modeled per-epoch (per-
iteration) collective time, whole-solve iteration-phase communication,
election-allreduce message counts, and exact per-epoch election wire
bytes.  The hierarchical suite must win at p ≥ 256; at 16 ranks (one
node) the two-level plan collapses into flat and the times tie.

Run either way::

    python benchmarks/bench_collectives.py [--quick]
    pytest benchmarks/bench_collectives.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.kernels import RBFKernel
from repro.perfmodel import MachineSpec
from repro.perfmodel import costs
from repro.perfmodel.projector import project
from repro.sparse import CSRMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_collectives.json"

N = 400
D = 3
NPROCS = 4
PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=500_000)

#: the scaling sweep: one node, four nodes, then cluster scale
SWEEP_PS = (16, 64, 256, 1024, 4096)
QUICK_PS = (16, 64)

#: ranks-per-node for the modeled cluster (the Cascade node width)
RANKS_PER_NODE = 16


def _problem(seed: int = 3):
    # overlapping low-dimensional blobs: many support vectors, so the
    # shrinking heuristic fires and reconstruction rings actually run
    rng = np.random.default_rng(seed)
    half = N // 2
    dense = np.vstack([
        rng.normal(+0.6, 1.3, size=(half, D)),
        rng.normal(-0.6, 1.3, size=(N - half, D)),
    ])
    y = np.concatenate([np.ones(half), -np.ones(N - half)])
    order = rng.permutation(N)
    return CSRMatrix.from_dense(dense[order]), y[order]


def run_scaling_sweep(ps) -> dict:
    X, y = _problem()
    trace = fit_parallel(
        X, y, PARAMS, config=RunConfig(heuristic="multi5pc", nprocs=NPROCS)
    ).trace
    machine = MachineSpec.multinode(ranks_per_node=RANKS_PER_NODE)

    rows = []
    for p in ps:
        per_comm = {}
        for comm in ("flat", "hierarchical"):
            pt = project(trace, machine, p, comm=comm)
            per_comm[comm] = pt
        flat, hier = per_comm["flat"], per_comm["hierarchical"]
        iters = trace.iterations or 1
        k, nn = costs.node_geometry(machine, p)
        msgs_flat = costs.allreduce_messages(p)
        msgs_hier = costs.hier_allreduce_messages(machine, p)
        rows.append({
            "p": p,
            "nodes": nn,
            "ranks_per_node": k,
            # per-epoch (per-iteration) collective time, seconds
            "epoch_comm_flat": flat.iter_comm / iters,
            "epoch_comm_hier": hier.iter_comm / iters,
            "epoch_speedup": (
                flat.iter_comm / hier.iter_comm if hier.iter_comm else 1.0
            ),
            # one fused-election allreduce, modeled end to end
            "election_flat_us": 1e6 * costs.election_time(machine, p),
            "election_hier_us": 1e6 * costs.election_time(
                machine, p, comm="hierarchical"
            ),
            # messages for one election allreduce
            "election_messages_flat": msgs_flat,
            "election_messages_hier": msgs_hier,
            # exact wire bytes one election moves per epoch
            "election_bytes_flat": int(msgs_flat * costs.ELECTION_BYTES),
            "election_bytes_hier": int(msgs_hier * costs.ELECTION_BYTES),
            # whole-solve modeled totals
            "total_flat": flat.total,
            "total_hier": hier.total,
        })

    largest = rows[-1]
    if largest["nodes"] > 1:
        if not largest["epoch_comm_hier"] < largest["epoch_comm_flat"]:
            raise AssertionError(
                f"hierarchical must beat flat per-epoch at p={largest['p']}: "
                f"hier={largest['epoch_comm_hier']:.3e} "
                f"flat={largest['epoch_comm_flat']:.3e}"
            )
    for row in rows:
        if row["nodes"] > 1 and row["p"] >= 256:
            if not row["epoch_comm_hier"] < row["epoch_comm_flat"]:
                raise AssertionError(
                    f"hierarchical must beat flat at p={row['p']}"
                )

    return {
        "machine": "multinode",
        "ranks_per_node": RANKS_PER_NODE,
        "trace_iterations": trace.iterations,
        "sweep": rows,
    }


def build_report(quick: bool = False) -> dict:
    ps = QUICK_PS if quick else SWEEP_PS
    return {
        "bench": "collectives",
        "quick": quick,
        "scaling": run_scaling_sweep(ps),
    }


def format_report(report: dict) -> str:
    lines = [
        "flat vs hierarchical collectives (modeled, "
        f"{report['scaling']['ranks_per_node']} ranks/node):",
        f"  {'p':>5} {'nodes':>5} {'epoch flat':>12} {'epoch hier':>12} "
        f"{'speedup':>8} {'msgs flat':>10} {'msgs hier':>10}",
    ]
    for r in report["scaling"]["sweep"]:
        lines.append(
            f"  {r['p']:>5} {r['nodes']:>5} "
            f"{r['epoch_comm_flat'] * 1e6:>10.2f}us "
            f"{r['epoch_comm_hier'] * 1e6:>10.2f}us "
            f"{r['epoch_speedup']:>7.2f}x "
            f"{r['election_messages_flat']:>10,} "
            f"{r['election_messages_hier']:>10,}"
        )
    return "\n".join(lines)


def test_collectives_bench_quick():
    """Pytest entry: the smoke-scale bench must hold its assertions."""
    report = build_report(quick=True)
    last = report["scaling"]["sweep"][-1]
    assert last["epoch_comm_hier"] < last["epoch_comm_flat"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"sweep only p={list(QUICK_PS)}")
    ap.add_argument("--out", default=str(OUT_PATH),
                    help="report path (default: repo root)")
    args = ap.parse_args()

    report = build_report(quick=args.quick)
    print(format_report(report))
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
