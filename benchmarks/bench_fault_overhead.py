"""Overhead of the fault-injection layer, idle and recovering drops.

The fault layer adds a hook on every send (``before_send``), and a
routing decision plus, when the plan can re-deliver, a duplicate check
on every delivery.  They are dormant on a fault-free job — no engine is
installed and mailboxes keep no seen-set — and every receive is the
same blocking take with or without an engine: its drop recovery costs
a type test per pulled item and a test against an empty set per match.
So a ``faults=None`` fit must cost (wall-clock) what it did before the
layer existed.  This bench quantifies the claim two ways:

1. **disabled** — ``faults=None`` vs the same fit re-run (the noise
   floor of the measurement itself);
2. **installed-but-idle** — an engine installed from an *empty*
   ``FaultPlan`` (every send and delivery through the engine's
   empty-plan fast path) vs ``faults=None``.  This is the worst case a
   user can enable, and the interesting number: its median over
   rounds must stay under 5%.

A third row, **active drop**, fits under a seeded 2% drop plan and
records its host seconds against the fault-free fit.  Drop recovery is
event-driven, so it costs one immediate re-request per drop; no
receive has a host timeout.  Its checks are bitwise and count-based
only: α, β and virtual time equal the fault-free fit's, and
``retries == dropped`` (one ledger re-request per drop).

Threaded fits are noisy (GIL scheduling, and hosts that run at
different speeds for seconds at a time), so the configurations are timed
*interleaved*, in rounds of disabled/idle/drop/disabled fits, with the
process pinned to one CPU.  Each overhead is the median over rounds of
a fit's time against the mean of the two disabled fits around it: the
fits of one round see the same host state.  The report records the
quartiles of those per-round ratios beside each median, so a reader
can see whether the spread resolves the 5% bar.  (Taking each
configuration's minimum over all rounds instead compared fits from
different host states: on a 2-vCPU VM it read the idle overhead
anywhere from −12% to +26% on the same code.)

The script writes ``BENCH_fault_overhead.json`` at the repo root (or
``--out``); the pytest entry writes its report under pytest's
``tmp_path``.  Run either way::

    python benchmarks/bench_fault_overhead.py [--out PATH]
    pytest benchmarks/bench_fault_overhead.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.kernels import RBFKernel
from repro.mpi.faults import FaultPlan
from repro.sparse import CSRMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_fault_overhead.json"

N = 600
D = 24
NPROCS = 4
REPEATS = 10
PARAMS = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3, max_iter=500_000)

#: an installed engine with nothing scheduled
IDLE_PLAN = FaultPlan()

#: the active row: a seeded 2% drop rate
DROP_PLAN = "seed=5;drop:prob=0.02"


def _problem(seed: int = 0):
    rng = np.random.default_rng(seed)
    half = N // 2
    dense = np.vstack([
        rng.normal(-0.6, 1.2, (half, D)), rng.normal(0.6, 1.2, (N - half, D))
    ])
    y = np.concatenate([-np.ones(half), np.ones(N - half)])
    perm = rng.permutation(N)
    return CSRMatrix.from_dense(dense[perm]), y[perm]


def _fit(X, y, faults):
    return fit_parallel(
        X, y, PARAMS, config=RunConfig(nprocs=NPROCS, faults=faults)
    )


def _one_fit(X, y, faults) -> float:
    t0 = time.perf_counter()
    _fit(X, y, faults)
    return time.perf_counter() - t0


def _assert_bitwise(fr, ref) -> None:
    assert np.array_equal(ref.alpha, fr.alpha)
    assert fr.model.beta == ref.model.beta and fr.vtime == ref.vtime


@contextmanager
def _one_cpu():
    """Pin the process to one CPU (the highest it may use) for the
    duration: the rank threads then hand off by context switch instead
    of waking another CPU, whose latency dominates fit-to-fit noise on
    a virtual machine."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run() -> dict:
    X, y = _problem()
    configs = (None, IDLE_PLAN, DROP_PLAN, None)
    with _one_cpu():
        _fit(X, y, None)  # warm-up (JIT-free, but caches)
        rounds = [[_one_fit(X, y, f) for f in configs] for _ in range(REPEATS)]

    def overheads(col: int) -> list:
        """Per-round overhead of column ``col``: its fit's time against
        the mean of the round's two disabled fits, minus one."""
        return [r[col] / ((r[0] + r[3]) / 2) - 1.0 for r in rounds]

    def quartiles(col: int) -> list:
        q1, _, q3 = statistics.quantiles(overheads(col), n=4)
        return [q1, q3]

    def seconds(*cols: int) -> float:
        return statistics.median(r[c] for r in rounds for c in cols)

    noise = statistics.median(abs(r[0] / r[3] - 1.0) for r in rounds)
    idle = statistics.median(overheads(1))

    # correctness side-conditions: the idle engine is bitwise invisible,
    # and every drop is recovered bitwise by one immediate re-request
    ref = _fit(X, y, None)
    _assert_bitwise(_fit(X, y, IDLE_PLAN), ref)
    active = _fit(X, y, DROP_PLAN)
    _assert_bitwise(active, ref)
    stats = active.spmd.fault_stats["stats"]
    assert 0 < stats["dropped"], stats
    assert stats["retries"] == stats["retransmitted"] == stats["dropped"], stats

    return {
        "n": N, "d": D, "nprocs": NPROCS, "repeats": REPEATS,
        "disabled_seconds": seconds(0, 3),
        "disabled_rerun_noise": noise,
        "idle_engine_seconds": seconds(1),
        "idle_engine_overhead": idle,
        "idle_engine_overhead_quartiles": quartiles(1),
        "claim": "idle_engine_overhead < 0.05",
        "claim_holds": bool(idle < 0.05),
        "active_drop": {
            "faults": DROP_PLAN,
            "seconds": seconds(2),
            "overhead": statistics.median(overheads(2)),
            "overhead_quartiles": quartiles(2),
            "messages": active.stats.messages,
            "dropped": stats["dropped"],
            "retransmitted": stats["retransmitted"],
            "retries": stats["retries"],
            "bitwise_identical": True,
        },
    }


def main(out: Path = OUT_PATH) -> dict:
    payload = run()
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out}")
    return payload


def test_fault_overhead(benchmark, tmp_path):
    payload = benchmark.pedantic(
        main, args=(tmp_path / OUT_PATH.name,),
        iterations=1, rounds=1, warmup_rounds=0,
    )
    assert payload["claim_holds"], (
        f"idle fault engine costs {payload['idle_engine_overhead']:.1%} "
        f"(claimed < 5%)"
    )


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT_PATH,
                    help=f"report path (default: {OUT_PATH.name})")
    main(ap.parse_args().out)
