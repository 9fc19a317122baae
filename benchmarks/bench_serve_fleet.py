"""Benchmark: self-healing replicated serving fleet.

Two scenario families against a model trained on the mushrooms
miniature:

- **kill-mid-traffic recovery** across (``nprocs``, ``replicas``) —
  a kill fault takes a replica down mid-slab; the router drains the
  in-flight slab to a healthy replica and a replacement shard-group
  re-shards from the registry's saved model.  Every admitted request
  must complete, exactly once, bitwise equal to direct
  ``decision_function`` scoring.
- **hot-swap under load** — a second model version activates atomically
  mid-stream with the result cache warm; the retired version's cache
  namespace is flushed, so zero stale-version scores may be served by
  scorers or cache.

Also records the analytic fleet projection
(``repro.perfmodel.project_fleet``) at each swept geometry.  The
script writes ``BENCH_serve_fleet.json`` at the repo root, or at
``--out`` (strict JSON — the report convention maps non-finite floats
to null); the pytest entry writes its reports under pytest's
``tmp_path``.  Run either way::

    python benchmarks/bench_serve_fleet.py [--quick] [--out PATH]
    pytest benchmarks/bench_serve_fleet.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.serve.benchmark import (
    check_fleet_bars,
    format_fleet_report,
    run_fleet_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_serve_fleet.json"


def run_bench(quick: bool = False, out: Path = OUT_PATH) -> dict:
    report = run_fleet_bench(quick=quick)
    out.write_text(
        json.dumps(report, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return report


def test_fleet_recovery(tmp_path):
    report = run_bench(out=tmp_path / OUT_PATH.name)
    # every scenario asserted completion / exactly-once / bitwise
    # equality inside the run; here we hold the failover and
    # zero-staleness bars
    check_fleet_bars(report)
    (tmp_path / "serve_fleet.txt").write_text(
        format_fleet_report(report) + "\n", encoding="utf-8"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="one small geometry (p=2, replicas=2)")
    ap.add_argument("--out", default=str(OUT_PATH),
                    help="report path (default: repo root)")
    args = ap.parse_args(argv)

    out = Path(args.out)
    report = run_bench(quick=args.quick, out=out)
    print(format_fleet_report(report))
    check_fleet_bars(report)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
