"""The serving benchmark: batch policy × shard count sweep.

Trains one binary machine on the mushrooms miniature, then replays a
burst of single-row score requests through :func:`serve_requests` for
every (``max_batch``, ``nprocs``) combination, asserting on every
configuration that the served scores are **bitwise identical** to a
direct ``SVMModel.decision_function`` pass over the same rows.  Two
extra runs exercise the result cache (a duplicate-heavy workload) and
fault injection on the serving path.

The headline numbers are the batch-64 vs batch-1 speedups per shard
count, in both modeled (virtual-clock) and host (wall-second)
throughput; the acceptance bar is ≥ 3× on both at ``max_batch=64``.
``repro serve-bench`` and ``benchmarks/bench_serve.py`` both route
here; the report lands in ``BENCH_serve.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..config import RunConfig
from ..core.svc import SVC
from ..data import DATASETS, load_dataset
from ..sparse.csr import CSRMatrix
from .batching import BatchPolicy
from .loadgen import burst_arrivals, sample_requests
from .server import serve_requests

DATASET = "mushrooms"
N_REQUESTS = 512
QUICK_REQUESTS = 128
NPROCS_SWEEP = (1, 2, 4)
BATCH_SWEEP = (1, 8, 64)
#: the acceptance bar: batch-64 throughput vs single-request scoring
SPEEDUP_BAR = 3.0
BASE_BATCH, TOP_BATCH = 1, 64
#: the faulted runs' plans: a seeded 2% drop rate (the run's few dozen
#: slab messages may see no drop at all) and every message dropped
FAULT_PLANS = ("seed=5;drop:prob=0.02", "drop:prob=1.0")


def _train_model(
    scale: Optional[float] = None, config: Optional[RunConfig] = None
):
    entry = DATASETS[DATASET]
    ds = load_dataset(DATASET, scale=scale)
    clf = SVC(
        C=entry.C, sigma_sq=entry.sigma_sq,
        config=(config or RunConfig()).replace(nprocs=2),
    ).fit(ds.X_train, ds.y_train)
    return clf.model_, ds.X_train


def run_serve_bench(
    quick: bool = False, config: Optional[RunConfig] = None
) -> dict:
    """Run the sweep.  ``config`` carries run knobs shared by every
    scenario (machine, comm, ...); the swept ``nprocs`` and each
    scenario's ``faults`` override its fields."""
    base = config or RunConfig()
    n_requests = QUICK_REQUESTS if quick else N_REQUESTS
    model, pool = _train_model(scale=None, config=base)
    X_req = sample_requests(pool, n_requests, seed=7)
    arrivals = burst_arrivals(n_requests)
    direct = model.decision_function(X_req)

    configs: List[Dict] = []
    for nprocs in NPROCS_SWEEP:
        for max_batch in BATCH_SWEEP:
            res = serve_requests(
                model, X_req, arrivals,
                policy=BatchPolicy(max_batch=max_batch, max_delay=0.0),
                config=base.replace(nprocs=nprocs),
            )
            if not np.array_equal(res.scores, direct):
                raise AssertionError(
                    f"served scores diverge from direct scoring "
                    f"(nprocs={nprocs}, max_batch={max_batch})"
                )
            s = res.stats
            configs.append({
                "nprocs": nprocs,
                "max_batch": max_batch,
                "n_requests": n_requests,
                "n_slabs": s.n_slabs,
                "throughput_modeled": s.throughput,
                "throughput_host": n_requests / s.wall_seconds,
                "makespan_modeled": s.makespan,
                "wall_seconds": s.wall_seconds,
                "latency_p50": s.latency_p50,
                "latency_p99": s.latency_p99,
                "messages": s.total_messages,
                "bytes_sent": s.total_bytes_sent,
                "bitwise_identical": True,
            })

    speedups = []
    by_key = {(c["nprocs"], c["max_batch"]): c for c in configs}
    for nprocs in NPROCS_SWEEP:
        low, top = by_key[(nprocs, BASE_BATCH)], by_key[(nprocs, TOP_BATCH)]
        speedups.append({
            "nprocs": nprocs,
            "modeled_speedup": (
                top["throughput_modeled"] / low["throughput_modeled"]
            ),
            "host_speedup": top["throughput_host"] / low["throughput_host"],
        })

    # duplicate-heavy replay: two waves of the same requests, the second
    # arriving after the first has fully drained — a burst alone admits
    # every request before any slab completes, so nothing can hit
    X_wave = sample_requests(pool, n_requests, seed=11)
    X_dup = CSRMatrix.vstack([X_wave, X_wave])
    wave_arrivals = np.concatenate(
        [np.zeros(n_requests), np.full(n_requests, 1.0)]
    )
    cached = serve_requests(
        model, X_dup, wave_arrivals,
        policy=BatchPolicy(max_batch=64, max_delay=0.0),
        config=base.replace(nprocs=2), cache_entries=2 * n_requests,
    )
    if not np.array_equal(cached.scores, model.decision_function(X_dup)):
        raise AssertionError("cached serving diverges from direct scoring")

    # fault injection on the serving path: dropped slab messages are
    # retried by the runtime, scores stay bitwise exact
    faulted_runs = []
    for faults in FAULT_PLANS:
        faulty = serve_requests(
            model, X_req, arrivals,
            policy=BatchPolicy(max_batch=32, max_delay=0.0),
            config=base.replace(nprocs=2, faults=faults),
        )
        if not np.array_equal(faulty.scores, direct):
            raise AssertionError(
                f"serving under {faults!r} diverges from direct scoring"
            )
        faulted_runs.append({
            "faults": faults,
            "bitwise_identical": True,
            "fault_stats": faulty.spmd.fault_stats["stats"],
        })
    if not faulted_runs[-1]["fault_stats"]["dropped"]:
        raise AssertionError(f"fault plan {FAULT_PLANS[-1]!r} dropped nothing")

    return {
        "benchmark": "serve",
        "dataset": DATASET,
        "quick": quick,
        "n_sv": model.n_sv,
        "n_requests": n_requests,
        "speedup_bar": SPEEDUP_BAR,
        "configs": configs,
        "speedups": speedups,
        "cache_replay": {
            "waves": 2,
            **{k: cached.stats.cache[k]
               for k in ("hits", "misses", "hit_rate")},
            "bitwise_identical": True,
        },
        "faulted_runs": faulted_runs,
    }


def check_bars(report: dict) -> None:
    """Assert the acceptance bars over a finished report."""
    for s in report["speedups"]:
        if s["modeled_speedup"] < report["speedup_bar"]:
            raise AssertionError(
                f"modeled batch-{TOP_BATCH} speedup {s['modeled_speedup']:.2f}x "
                f"below {report['speedup_bar']}x at nprocs={s['nprocs']}"
            )
        if s["host_speedup"] < report["speedup_bar"]:
            raise AssertionError(
                f"host batch-{TOP_BATCH} speedup {s['host_speedup']:.2f}x "
                f"below {report['speedup_bar']}x at nprocs={s['nprocs']}"
            )
    if report["cache_replay"]["hit_rate"] <= 0.0:
        raise AssertionError("duplicate-heavy replay produced no cache hits")


def format_report(report: dict) -> str:
    lines = [
        f"serve bench ({'quick' if report['quick'] else 'full'}): "
        f"{report['dataset']}, n_sv={report['n_sv']}, "
        f"{report['n_requests']} requests (burst)",
        f"{'p':>3} {'batch':>5} {'slabs':>5} {'thr model (req/s)':>18} "
        f"{'thr host (req/s)':>17} {'p50 lat':>9} {'p99 lat':>9}",
    ]
    for c in report["configs"]:
        lines.append(
            f"{c['nprocs']:>3} {c['max_batch']:>5} {c['n_slabs']:>5} "
            f"{c['throughput_modeled']:>18,.0f} "
            f"{c['throughput_host']:>17,.0f} "
            f"{c['latency_p50'] * 1e6:>7.1f}us {c['latency_p99'] * 1e6:>7.1f}us"
        )
    for s in report["speedups"]:
        lines.append(
            f"batch {TOP_BATCH} vs {BASE_BATCH} at p={s['nprocs']}: "
            f"modeled {s['modeled_speedup']:.1f}x, host {s['host_speedup']:.1f}x"
        )
    cr = report["cache_replay"]
    lines.append(
        f"cache replay ({cr['waves']} waves): "
        f"hit rate {cr['hit_rate']:.2f} ({cr['hits']} hits)"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# fleet benchmark: kill-mid-traffic recovery + hot-swap-under-load
# --------------------------------------------------------------------------

FLEET_SWEEP = ((2, 2), (2, 3), (4, 2), (4, 3))  # (nprocs, replicas)
QUICK_FLEET_SWEEP = ((2, 2),)
FLEET_REQUESTS = 256
QUICK_FLEET_REQUESTS = 96


def _fleet_scenario(model, X_req, arrivals, *, nprocs, replicas, events,
                    registry=None, cache_entries=0, base_config=None):
    """One fleet run + the invariant audit every scenario must pass."""
    from .batching import CACHE_HIT as _HIT, SCORED as _SCORED
    from .fleet import serve_fleet
    from .registry import ModelRegistry

    source = registry if registry is not None else model
    res = serve_fleet(
        source, X_req, arrivals,
        policy=BatchPolicy(max_batch=32, max_delay=200e-6),
        config=(base_config or RunConfig()).replace(
            nprocs=nprocs, replicas=replicas
        ),
        events=events, cache_entries=cache_entries,
    )
    n = X_req.shape[0]
    done = (res.status == _SCORED) | (res.status == _HIT)
    if not done.all():
        raise AssertionError(
            f"{int((~done).sum())} of {n} requests dropped "
            f"(p={nprocs}, replicas={replicas})"
        )
    # exactly-once: every SPMD-scored request sits in exactly one
    # successful slab; drained slabs from killed replicas never land
    counts = np.zeros(n, dtype=np.int64)
    for rec in res.fleet.slab_log:
        counts[rec["ids"]] += 1
    scored = res.status == _SCORED
    if not np.array_equal(counts[scored], np.ones(int(scored.sum()))):
        raise AssertionError("a request was double-scored or lost in a slab")
    if counts[~scored].any():
        raise AssertionError("a non-scored request appears in a slab log")
    # bitwise: each request matches direct scoring by the model version
    # that actually served it (cache hits included)
    stale = 0
    reg = res.registry
    for version in sorted(set(res.versions[done].tolist())):
        sel = done & (res.versions == version)
        idx = np.where(sel)[0]
        direct = reg.load(int(version)).decision_function(X_req.take_rows(idx))
        if not np.array_equal(res.scores[sel], direct):
            stale += int((res.scores[sel] != direct).sum())
    if stale:
        raise AssertionError(f"{stale} served scores diverge from their "
                             f"recorded model version (stale or corrupt)")
    return res, stale


def run_fleet_bench(
    quick: bool = False, config: Optional[RunConfig] = None
) -> dict:
    """Kill-mid-traffic recovery sweep + hot-swap-under-load scenario."""
    from .fleet import KillReplica, SwapModel
    from .loadgen import uniform_arrivals
    from .registry import ModelRegistry
    from ..perfmodel import MachineSpec, project_fleet

    base = config or RunConfig()
    n_requests = QUICK_FLEET_REQUESTS if quick else FLEET_REQUESTS
    sweep = QUICK_FLEET_SWEEP if quick else FLEET_SWEEP
    entry = DATASETS[DATASET]
    ds = load_dataset(DATASET, scale=None)
    model, pool = _train_model(scale=None, config=base)
    X_req = sample_requests(pool, n_requests, seed=7)
    horizon = 20e-3 if quick else 50e-3
    arrivals = uniform_arrivals(n_requests, n_requests / horizon)
    t_kill = float(arrivals[n_requests // 3])

    scenarios: List[Dict] = []
    for nprocs, replicas in sweep:
        res, stale = _fleet_scenario(
            model, X_req, arrivals, nprocs=nprocs, replicas=replicas,
            events=[KillReplica(time=t_kill, slot=replicas - 1)],
            base_config=base,
        )
        s = res.stats
        scenarios.append({
            "scenario": "kill_mid_traffic",
            "nprocs": nprocs,
            "replicas": replicas,
            "n_requests": n_requests,
            "n_slabs": s.n_slabs,
            "n_failovers": res.fleet.n_failovers,
            "drained_requests": sum(
                f.drained_requests for f in res.fleet.failovers
            ),
            "reshard_seconds": res.fleet.reshard_seconds,
            "throughput_modeled": s.throughput,
            "makespan_modeled": s.makespan,
            "latency_p50": s.latency_p50,
            "latency_p99": s.latency_p99,
            "slabs_per_slot": res.fleet.slabs_per_slot,
            "bitwise_identical": True,
            "stale_scores": stale,
        })

    # hot-swap under load: v2 activates mid-stream with the cache warm;
    # the retired namespace is flushed, so zero stale-version scores can
    # leak from either the scorers or the cache
    clf2 = SVC(
        C=entry.C * 0.5, sigma_sq=entry.sigma_sq * 2.0,
        config=base.replace(nprocs=2),
    ).fit(ds.X_train, ds.y_train)
    registry = ModelRegistry()
    v1 = registry.publish(model, label="v1")
    v2 = registry.publish(clf2.model_, label="v2")
    registry.activate(v1)
    t_swap = float(arrivals[n_requests // 2])
    nprocs_hs, replicas_hs = sweep[0]
    res_hs, stale_hs = _fleet_scenario(
        model, X_req, arrivals, nprocs=nprocs_hs, replicas=replicas_hs,
        events=[SwapModel(time=t_swap, version=v2)],
        registry=registry, cache_entries=2 * n_requests,
        base_config=base,
    )
    served_versions = {
        int(v): int((res_hs.versions == v).sum())
        for v in sorted(set(res_hs.versions.tolist())) if v >= 0
    }
    hot_swap = {
        "scenario": "hot_swap_under_load",
        "nprocs": nprocs_hs,
        "replicas": replicas_hs,
        "n_requests": n_requests,
        "n_swaps": res_hs.fleet.n_swaps,
        "n_reshards": res_hs.fleet.n_reshards,
        "flushed_entries": sum(
            s["flushed_entries"] for s in res_hs.fleet.swaps
        ),
        "served_per_version": served_versions,
        "cache": {k: res_hs.stats.cache.get(k)
                  for k in ("hits", "misses", "hit_rate", "flushed")},
        "bitwise_identical": True,
        "stale_scores": stale_hs,
    }

    machine = MachineSpec.cascade()
    avg_nnz = model.sv_X.avg_row_nnz or 1.0
    projections = []
    for p, r in sweep:
        proj = project_fleet(
            machine, n_sv=model.n_sv, avg_nnz=avg_nnz,
            p=p, replicas=r, slab_rows=32,
        )
        projections.append({
            "p": proj.p,
            "replicas": proj.replicas,
            "slab_rows": proj.slab_rows,
            "slab_time": proj.slab_time,
            "throughput": proj.throughput,
            "reshard_time": proj.reshard_time,
            "recovery_time": proj.recovery_time,
            "requests_at_risk": proj.requests_at_risk,
            "recovery_slabs": proj.recovery_slabs,
        })

    return {
        "benchmark": "serve_fleet",
        "dataset": DATASET,
        "quick": quick,
        "n_sv": model.n_sv,
        "n_requests": n_requests,
        "kill_time": t_kill,
        "swap_time": t_swap,
        "scenarios": scenarios,
        "hot_swap": hot_swap,
        "projections": projections,
    }


def check_fleet_bars(report: dict) -> None:
    """Assert the fleet acceptance bars over a finished report."""
    for sc in report["scenarios"]:
        if sc["n_failovers"] < 1:
            raise AssertionError(
                f"kill scenario at p={sc['nprocs']} replicas={sc['replicas']} "
                f"recorded no failover"
            )
        if not sc["bitwise_identical"] or sc["stale_scores"]:
            raise AssertionError("kill scenario served non-exact scores")
        if sc["drained_requests"] < 1:
            raise AssertionError("failover drained no in-flight requests")
    hs = report["hot_swap"]
    if hs["n_swaps"] < 1:
        raise AssertionError("hot-swap scenario recorded no swap")
    if hs["stale_scores"]:
        raise AssertionError(
            f"hot-swap leaked {hs['stale_scores']} stale-version scores"
        )
    if len(hs["served_per_version"]) < 2:
        raise AssertionError(
            "hot-swap scenario served only one model version "
            "(swap landed outside the traffic window)"
        )


def format_fleet_report(report: dict) -> str:
    lines = [
        f"serve fleet bench ({'quick' if report['quick'] else 'full'}): "
        f"{report['dataset']}, n_sv={report['n_sv']}, "
        f"{report['n_requests']} requests, kill at "
        f"t={report['kill_time'] * 1e3:.1f}ms",
        f"{'p':>3} {'rep':>3} {'slabs':>5} {'fails':>5} {'drain':>5} "
        f"{'thr model (req/s)':>18} {'p99 lat':>9}",
    ]
    for sc in report["scenarios"]:
        lines.append(
            f"{sc['nprocs']:>3} {sc['replicas']:>3} {sc['n_slabs']:>5} "
            f"{sc['n_failovers']:>5} {sc['drained_requests']:>5} "
            f"{sc['throughput_modeled']:>18,.0f} "
            f"{sc['latency_p99'] * 1e3:>7.2f}ms"
        )
    hs = report["hot_swap"]
    lines.append(
        f"hot swap at t={report['swap_time'] * 1e3:.1f}ms: "
        f"{hs['n_swaps']} swap(s), {hs['n_reshards']} reshard(s), "
        f"versions {hs['served_per_version']}, "
        f"{hs['flushed_entries']} cache entries flushed, 0 stale"
    )
    return "\n".join(lines)
