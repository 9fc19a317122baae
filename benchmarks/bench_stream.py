"""Benchmark: incremental streaming refit vs cold retrain under drift.

Feeds a seeded rotating-boundary drift stream (12 batches x 40 rows)
through ``IncrementalSVC.partial_fit`` with an every-batch refresh
policy.  Every refit is certified tolerance-equivalent to a cold full
solve on the accumulated set, and the cold solves' kernel-eval ledger
is the baseline: the bar is cumulative kernel evals (seeding included)
at least 2x lower on the incremental path over the >= 10-batch stream.
A trace-driven projection then prices one warm refresh step (gamma
seeding + warm refit + fleet re-shard) against a cold retrain at
p = 16..256 on the multi-node machine model.

The script writes ``BENCH_stream.json`` at the repo root (``--out``
writes elsewhere); the pytest entry writes its reports under pytest's
``tmp_path``.  Run either way::

    python benchmarks/bench_stream.py [--quick] [--out PATH]
    pytest benchmarks/bench_stream.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.stream.benchmark import check_bars, format_report, run_stream_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_stream.json"


def run_bench(quick: bool = False, out: Path = OUT_PATH) -> dict:
    report = run_stream_bench(quick=quick)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_stream_eval_reduction(tmp_path):
    report = run_bench(out=tmp_path / OUT_PATH.name)
    # every refit already asserted equivalence inside the scenario run;
    # here we hold the kernel-eval-reduction and projection bars
    check_bars(report)
    (tmp_path / "stream.txt").write_text(
        format_report(report) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="short stream, skip the eval-reduction bar "
                         "(every refit is still certified equivalent)")
    ap.add_argument("--out", default=str(OUT_PATH),
                    help="report path (default: repo root)")
    args = ap.parse_args(argv)

    out = Path(args.out)
    report = run_bench(quick=args.quick, out=out)
    print(format_report(report))
    if not args.quick:
        check_bars(report)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
