"""Benchmark: microbatched serving vs single-request scoring.

Load-generates a burst of single-row score requests against a model
trained on the mushrooms miniature and sweeps the microbatch policy
(``max_batch`` 1/8/64) across shard counts (``nprocs`` 1/2/4).  Every
swept configuration must return scores bitwise identical to a direct
``SVMModel.decision_function`` pass; the speedup bar is batch-64
throughput ≥ 3× single-request throughput in BOTH modeled virtual time
and host wall time.  Also replays a duplicate-heavy workload through
the result cache and a fault-injected run on the serving path.

The script writes ``BENCH_serve.json`` at the repo root (``--out``
writes elsewhere); the pytest entry writes its reports under pytest's
``tmp_path``.  Run either way::

    python benchmarks/bench_serve.py [--quick] [--out PATH]
    pytest benchmarks/bench_serve.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.serve.benchmark import check_bars, format_report, run_serve_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_serve.json"


def run_bench(quick: bool = False, out: Path = OUT_PATH) -> dict:
    report = run_serve_bench(quick=quick)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_serve_speedup(tmp_path):
    report = run_bench(out=tmp_path / OUT_PATH.name)
    # every swept configuration asserted bitwise equality inside the
    # sweep; here we hold the throughput and cache bars
    check_bars(report)
    (tmp_path / "serve.txt").write_text(
        format_report(report) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer requests, skip the throughput bars (every "
                         "configuration still asserts bitwise scores)")
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
