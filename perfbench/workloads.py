"""The benchmark's workloads.

Each workload holds its inputs fixed and lets the seed perturb them
only slightly, so the modeled metrics stay comparable across seeds
while still differing between them.  The training workloads scale
every stored value of a fixed registry stand-in by ``1 + 1e-6 * z``
(``z`` standard normal, drawn from the seed): that is enough to change
the SMO pair sequence (the 465-row forest fit took 1762 to 1891
iterations over thirty seeds, its modeled time moving within 4%),
where a fresh draw of the data moved the iteration count by a factor
of two (1162 rows: 3582 to 7433) and a row permutation moved the
modeled time of a 698-row fit by 15%.  Serving and streaming draw
their request rows, arrival times and batch row order from the seed.

A workload is a class with:

- ``prepare(seed)``: one set-up pass (input generation, any fit the
  workload consumes, a warm-up call of the timed path) returning the
  state the timed operation reads;
- ``op(state)``: the timed operation;
- ``parts(state)`` and ``join(results)``: the operation as calls that
  are timed one by one (by default the one call ``op``), and how their
  results make up ``op``'s;
- ``signature(result)``: bytes that every repeat must reproduce
  exactly;
- ``check(state, result)``: untimed output checks, ``(attempted,
  failed)``;
- ``exact(state, result)``: the modeled end-to-end values;
- ``layers(state, result)``: per-layer counts read from the results
  the program already returns.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.config import RunConfig
from repro.core import solver
from repro.core.equiv import check_kkt
from repro.core.params import SVMParams
from repro.data import DATASETS, load_dataset
from repro.data.synthetic import DriftStreamSpec, drift_stream
from repro.kernels import RBFKernel
from repro.perfmodel import costs
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.projector import project, project_fleet, project_stream
from repro.serve import (
    CACHE_HIT,
    REJECTED,
    SCORED,
    BatchPolicy,
    ModelRegistry,
    poisson_arrivals,
    serve_requests,
)
from repro.sparse.csr import CSRMatrix
from repro.stream import IncrementalSVC

NPROCS = 2  # simulated ranks are threads; the reference host has 2 CPUs
HEURISTIC = "multi5pc"
CASCADE = MachineSpec.cascade()
PROJECT_P = 256
#: relative size of the seeded perturbation of the training stand-ins
JITTER = 1e-6


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


def _signed(labels: np.ndarray) -> np.ndarray:
    classes = np.unique(labels)
    return np.where(labels == classes[-1], 1.0, -1.0)


def _registry_params(name: str) -> SVMParams:
    entry = DATASETS[name]
    return SVMParams(
        C=entry.C,
        kernel=RBFKernel.from_sigma_sq(entry.sigma_sq),
        eps=1e-3,
        max_iter=500_000,
    )


def _fit_layers(fits) -> Dict[str, float]:
    """Solver and message-layer counts summed over ``FitResult``s."""
    out: Dict[str, float] = {}
    iters = sum(f.iterations for f in fits)
    bcasts = sum(f.trace.pair_broadcasts for f in fits)
    active = [f.trace.active_fraction() for f in fits if f.iterations]
    out["core.iterations"] = iters
    out["core.kernel_evals"] = sum(f.stats.kernel_evals for f in fits)
    out["core.recon_kernel_evals"] = sum(f.trace.recon_kernel_evals() for f in fits)
    out["core.recon_rounds"] = sum(f.trace.n_reconstructions() for f in fits)
    out["core.shrink_events"] = sum(len(f.trace.shrink_iters) for f in fits)
    out["core.active_frac_mean"] = (
        float(np.mean(np.concatenate(active))) if active else 0.0
    )
    out["core.pair_reuse_frac"] = 1.0 - bcasts / (2.0 * iters) if iters else 0.0
    out.update(_spmd_layers([f.spmd for f in fits]))
    modeled = sum(f.vtime for f in fits)
    projected = sum(
        project(f.trace, CASCADE, f.stats.nprocs).total for f in fits
    )
    out["perfmodel.project_ratio"] = projected / modeled if modeled else 0.0
    return out


def _spmd_layers(jobs) -> Dict[str, float]:
    out = {
        "mpi.messages": sum(j.total_messages for j in jobs),
        "mpi.bytes": sum(j.total_bytes_sent for j in jobs),
        "mpi.vtime.compute_ms": 1e3 * sum(
            r.stats.compute_seconds for j in jobs for r in j.rank_stats
        ),
        "mpi.vtime.comm_ms": 1e3 * sum(
            r.stats.comm_seconds for j in jobs for r in j.rank_stats
        ),
        "mpi.vtime.idle_ms": 1e3 * sum(
            r.stats.idle_seconds for j in jobs for r in j.rank_stats
        ),
        "mpi.faults.dropped": 0,
        "mpi.faults.retries": 0,
    }
    for j in jobs:
        if j.fault_stats is not None:
            out["mpi.faults.dropped"] += j.fault_stats["stats"]["dropped"]
            out["mpi.faults.retries"] += j.fault_stats["stats"]["retries"]
    return out


def _split_jitter(name: str, scale: float, seed: int):
    """Registry stand-in with a fixed held-out set (its test split, or
    else the last fifth); the training rows' stored values are scaled by
    ``1 + JITTER * z`` with ``z`` drawn from ``seed``."""
    ds = load_dataset(name, scale=scale)
    X, y = ds.X_train, _signed(ds.y_train)
    if ds.X_test is not None:
        X_test, y_test = ds.X_test, _signed(ds.y_test)
    else:
        n_test = X.shape[0] // 5
        cut = X.shape[0] - n_test
        X_test, y_test = X.row_slice(cut, X.shape[0]), y[cut:]
        X, y = X.row_slice(0, cut), y[:cut]
    z = np.random.default_rng(seed).standard_normal(X.nnz)
    X = CSRMatrix(X.data * (1.0 + JITTER * z), X.indices, X.indptr, X.shape)
    return X, y, X_test, y_test


class Workload:
    name = ""

    def prepare(self, seed: int) -> dict:
        raise NotImplementedError

    def op(self, st: dict):
        raise NotImplementedError

    def parts(self, st: dict) -> list:
        return [lambda: self.op(st)]

    def join(self, results: list):
        return results[0]

    def signature(self, result) -> bytes:
        raise NotImplementedError

    def check(self, st: dict, result) -> Tuple[int, int]:
        raise NotImplementedError

    def exact(self, st: dict, result) -> Dict[str, float]:
        raise NotImplementedError

    def layers(self, st: dict, result) -> Dict[str, float]:
        return {}

    def finish(self, st: dict, result) -> Dict[str, float]:
        """Extra untimed, untraced measurements for the traced run."""
        return {}


# ----------------------------------------------------------------------
# train: the paper's own path
# ----------------------------------------------------------------------
class Train(Workload):
    """Cold p=2 fit of the forest stand-in (low dimension, thousands of
    SMO iterations, multi5pc with two or more reconstructions)."""

    name = "train"
    #: at 698 rows (scale 1.5e-3) a tenth of the seeds fell into a
    #: second mode 7% slower in modeled time, and one fit's quartile
    #: spread over ten seeds read 9%; at 465 rows there is one mode
    dataset, scale = "forest", 1e-3

    def prepare(self, seed: int) -> dict:
        t0 = time.perf_counter()
        X, y, X_test, y_test = _split_jitter(self.dataset, self.scale, seed)
        params = _registry_params(self.dataset)
        gen = time.perf_counter() - t0
        t0 = time.perf_counter()
        self._fit(X.row_slice(0, 64), y[:64], params)  # warm-up
        return {
            "X": X, "y": y, "X_test": X_test, "y_test": y_test,
            "params": params, "gen_s": gen, "fit_s": time.perf_counter() - t0,
        }

    def _fit(self, X, y, params, faults=None):
        cfg = RunConfig(heuristic=HEURISTIC, nprocs=NPROCS, faults=faults)
        return solver.fit_parallel(X, y, params, config=cfg)

    def op(self, st: dict):
        return self._fit(st["X"], st["y"], st["params"])

    def signature(self, fr) -> bytes:
        return _digest(fr.alpha, fr.model.beta, fr.vtime, fr.iterations)

    def check(self, st: dict, fr) -> Tuple[int, int]:
        p = st["params"]
        try:
            check_kkt(st["X"], st["y"], fr.alpha, fr.model.beta, p.kernel, p.C, p.eps)
        except AssertionError:
            return 1, 1
        return 1, 0

    def _paper_scale(self, st: dict) -> float:
        return DATASETS[self.dataset].paper_train / st["X"].shape[0]

    def exact(self, st: dict, fr) -> Dict[str, float]:
        s = self._paper_scale(st)
        p256 = project(fr.trace, CASCADE, PROJECT_P, n_scale=s, iteration_scale=s)
        return {
            "vtime_ms": 1e3 * fr.vtime,
            "vtime_p256_ms": 1e3 * p256.total,
            "accuracy": fr.model.accuracy(st["X_test"], st["y_test"]),
        }

    def layers(self, st: dict, fr) -> Dict[str, float]:
        return _fit_layers([fr])


# ----------------------------------------------------------------------
# train-faulted: the only workload where fault recovery runs
# ----------------------------------------------------------------------
#: the drop plan in FaultPlan.parse's grammar: clause "seed=N", then
#: "kind:key=val".  The parser ignores unknown keys, so a misspelt
#: plan (e.g. "drop:p=0.02,seed=5") silently drops every message;
#: TrainFaulted.guard_plan refuses to run such a plan.
FAULT_SEED, FAULT_PROB = 5, 0.02
FAULT_PLAN = f"seed={FAULT_SEED};drop:prob={FAULT_PROB}"


class TrainFaulted(Train):
    """Small p=2 fit (w7a stand-in, 123 samples) under a seeded 2%
    probabilistic drop plan; recovery waits on ``RetryPolicy`` host
    timeouts, so they dominate the host time."""

    name = "train-faulted"
    dataset, scale = "w7a", 0.005

    def prepare(self, seed: int) -> dict:
        st = super().prepare(seed)
        self.guard_plan()
        return st

    @staticmethod
    def guard_plan() -> None:
        from repro.mpi.faults import FaultPlan

        plan = FaultPlan.parse(FAULT_PLAN)
        kinds = [(f.kind, f.prob) for f in plan.faults]
        if plan.seed != FAULT_SEED or kinds != [("drop", FAULT_PROB)]:
            raise RuntimeError(f"fault plan parsed as {plan.describe()}")

    def op(self, st: dict):
        return self._fit(st["X"], st["y"], st["params"], faults=FAULT_PLAN)

    def signature(self, fr) -> bytes:
        return _digest(
            fr.alpha, fr.model.beta, fr.vtime, fr.spmd.fault_stats["schedule"]
        )

    def check(self, st: dict, fr) -> Tuple[int, int]:
        dropped = fr.spmd.fault_stats["stats"]["dropped"]
        if not 0 < dropped <= 0.05 * fr.stats.messages:
            raise RuntimeError(
                f"drop plan fired {dropped} drops on {fr.stats.messages} "
                f"messages; expected a small nonzero share"
            )
        clean = self._fit(st["X"], st["y"], st["params"])
        same = (
            fr.alpha.tobytes() == clean.alpha.tobytes()
            and fr.model.beta == clean.model.beta
            and fr.vtime == clean.vtime
        )
        return 1, 0 if same else 1


# ----------------------------------------------------------------------
# serve: open-loop serving on the simulated clock
# ----------------------------------------------------------------------
class Serve(Workload):
    """Open-loop p=2 serving of a 544-SV model (real-sim stand-in) at
    three fixed modeled rates: under the knee, near it (nominal) and
    above it.  Arrivals are simulated, so every request is timed from
    its due time and the generator can never run late."""

    name = "serve"
    dataset, scale = "real-sim", 0.03
    pool_rows = 800  # held-out request pool (the cache holds 1/8 of it)
    n_requests = 3000
    duplicate_fraction = 0.25
    cache_entries = 100
    policy = BatchPolicy(max_batch=64, max_delay=500e-6, max_queue=256)
    #: low, nominal, high (req/s) around a knee near 45k req/s; the
    #: nominal rate sits at two thirds of the knee, where the median
    #: latency still moves with the program rather than with the
    #: seed's arrival draw (its quartile spread over ten seeds is 2.2%
    #: here, 6.1% at 40k)
    rates = (5_000.0, 30_000.0, 80_000.0)
    nominal = 1
    #: the goodput limit on p99 latency at a fixed rate, no refusals
    p99_limit_ms = 2.5

    def prepare(self, seed: int) -> dict:
        t0 = time.perf_counter()
        ds = load_dataset(self.dataset, scale=self.scale)
        X, y = ds.X_train, _signed(ds.y_train)
        cut = X.shape[0] - self.pool_rows
        X_train, y_train = X.row_slice(0, cut), y[:cut]
        pool, pool_y = X.row_slice(cut, X.shape[0]), y[cut:]
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, self.pool_rows, size=self.n_requests)
        n_dup = int(self.n_requests * self.duplicate_fraction)
        rows[-n_dup:] = rows[rng.integers(0, self.n_requests - n_dup, size=n_dup)]
        rng.shuffle(rows)
        requests, labels = pool.take_rows(rows), pool_y[rows]
        arrivals = [
            poisson_arrivals(self.n_requests, rate, seed=seed)
            for rate in self.rates
        ]
        gen = time.perf_counter() - t0
        t0 = time.perf_counter()
        params = _registry_params(self.dataset)
        fit = solver.fit_parallel(
            X_train, y_train, params,
            config=RunConfig(heuristic=HEURISTIC, nprocs=1),
        )
        fit_s = time.perf_counter() - t0
        st = {
            "model": fit.model, "requests": requests, "labels": labels,
            "arrivals": arrivals, "seed": seed, "gen_s": gen, "fit_s": fit_s,
        }
        self._session(st, requests.row_slice(0, 200), arrivals[0][:200])
        return st

    @staticmethod
    def _slab_time(st: dict, r, p: int) -> float:
        """``project_fleet``'s modeled time for one slab of the session's
        mean size on ``p`` ranks."""
        model = st["model"]
        return project_fleet(
            CASCADE, n_sv=model.n_sv, avg_nnz=model.sv_X.avg_row_nnz, p=p,
            replicas=1, slab_rows=r.stats.mean_slab_size,
        ).slab_time

    def _session(self, st, requests, arrivals):
        return serve_requests(
            st["model"], requests, arrivals, policy=self.policy,
            config=RunConfig(nprocs=NPROCS), cache_entries=self.cache_entries,
        )

    def op(self, st: dict):
        return self.join([part() for part in self.parts(st)])

    def parts(self, st: dict) -> list:
        """One session per rate: timed apart, so that the host speed
        read between them follows each session closely."""
        return [
            lambda a=a: self._session(st, st["requests"], a)
            for a in st["arrivals"]
        ]

    def join(self, results: list):
        return results

    def signature(self, results) -> bytes:
        return _digest(*[x for r in results for x in (r.scores, r.status, r.completion_times)])

    def check(self, st: dict, results) -> Tuple[int, int]:
        direct = st["model"].decision_function(st["requests"])
        attempted = failed = 0
        for r in results:
            done = (r.status == SCORED) | (r.status == CACHE_HIT)
            attempted += int(done.sum())
            same = r.scores[done].view(np.uint64) == direct[done].view(np.uint64)
            failed += int((~same).sum())
        return attempted, failed

    def exact(self, st: dict, results) -> Dict[str, float]:
        r = results[self.nominal]
        done = np.isfinite(r.latencies)
        pred = np.where(r.scores[done] >= 0.0, 1.0, -1.0)
        return {
            "vtime_ms": 1e3 * float(np.median(r.latencies[done])),
            "vtime_p256_ms": 1e3 * self._slab_time(st, r, PROJECT_P),
            "accuracy": float(np.mean(pred == st["labels"][done])),
        }

    def layers(self, st: dict, results) -> Dict[str, float]:
        r = results[self.nominal]
        sched, arrivals = r.schedule, st["arrivals"][self.nominal]
        dispatched = {s.t_complete: s.t_dispatch for s in sched.slabs}
        scored = np.flatnonzero(r.status == SCORED)
        waits = np.array(
            [dispatched[r.completion_times[i]] - arrivals[i] for i in scored]
        )
        service = np.array([s.t_complete - s.t_dispatch for s in sched.slabs])
        lat = r.latencies[np.isfinite(r.latencies)]
        out = _spmd_layers([x.spmd for x in results])
        out.update({
            "serve.slabs": sum(x.stats.n_slabs for x in results),
            "serve.slab_size_mean": r.stats.mean_slab_size,
            "serve.queue_wait_p50_ms": 1e3 * float(np.percentile(waits, 50)),
            "serve.queue_wait_p99_ms": 1e3 * float(np.percentile(waits, 99)),
            "serve.service_ms_mean": 1e3 * float(service.mean()),
            "serve.peak_queue_depth": r.stats.peak_queue_depth,
            "serve.refused": sum(int((x.status == REJECTED).sum()) for x in results),
            "serve.cache.hit_rate": r.stats.n_cache_hits / r.stats.n_requests,
            "serve.latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
            "serve.latency_p99_ms": 1e3 * float(np.percentile(lat, 99)),
            "perfmodel.project_ratio": (
                self._slab_time(st, r, NPROCS) / float(service.mean())
            ),
        })
        return out

    def finish(self, st: dict, results) -> Dict[str, float]:
        return {"serve.goodput_rps": self.goodput(st)}

    def goodput(self, st: dict, steps: int = 6) -> float:
        """Highest fixed modeled rate whose p99 latency meets the limit
        with no refusals, bisected between the low and high rates."""

        def meets(rate: float) -> bool:
            arr = poisson_arrivals(self.n_requests, rate, seed=st["seed"])
            r = self._session(st, st["requests"], arr)
            return (
                r.stats.n_rejected == 0
                and 1e3 * r.stats.latency_p99 <= self.p99_limit_ms
            )

        lo, hi = self.rates[0], self.rates[-1]
        if not meets(lo):
            return lo
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if meets(mid):
                lo = mid
            else:
                hi = mid
        return lo


# ----------------------------------------------------------------------
# stream: warm refits, registry refresh, prequential scoring
# ----------------------------------------------------------------------
class Stream(Workload):
    """Rotate-drift stream through ``IncrementalSVC.partial_fit`` at p=2:
    each batch is scored on the served model first, then learnt, then
    the registry is refreshed (hot swap) — every batch."""

    name = "stream"
    spec = DriftStreamSpec(n_batches=8, batch_size=24, drift="rotate", seed=12)
    C, gamma, eps = 10.0, 0.5, 1e-3

    def prepare(self, seed: int) -> dict:
        t0 = time.perf_counter()
        rng = np.random.default_rng(seed)
        batches = []
        for Xb, yb in drift_stream(self.spec):
            perm = rng.permutation(Xb.shape[0])
            batches.append((Xb.take_rows(perm), yb[perm]))
        gen = time.perf_counter() - t0
        st = {"batches": batches, "gen_s": gen}
        t0 = time.perf_counter()
        self._pass(st, batches[:2])  # warm-up
        st["fit_s"] = time.perf_counter() - t0
        return st

    def _pass(self, st: dict, batches) -> dict:
        cfg = RunConfig(heuristic=HEURISTIC, nprocs=NPROCS)
        clf = IncrementalSVC(C=self.C, gamma=self.gamma, eps=self.eps, config=cfg)
        registry = ModelRegistry()
        acc: List[float] = []
        ttr: List[float] = []
        fits = []
        for Xb, yb in batches:
            active = registry.active_version
            if active is not None:
                acc.append(registry.load(active).accuracy(Xb, yb))
            clf.partial_fit(Xb, yb)
            fits.append(clf.fit_result_)
            registry.hot_swap(clf.model_)
            ttr.append(
                clf.records_[-1].vtime
                + costs.fleet_reshard_time(
                    CASCADE, clf.model_.n_sv, clf.X_.avg_row_nnz, NPROCS
                )
            )
        return {"clf": clf, "acc": acc, "ttr": ttr, "fits": fits}

    def op(self, st: dict):
        return self._pass(st, st["batches"])

    def signature(self, res) -> bytes:
        return _digest(res["clf"].alpha_, res["ttr"], res["acc"])

    def check(self, st: dict, res) -> Tuple[int, int]:
        clf = res["clf"]
        try:
            check_kkt(
                clf.X_, clf.y_, clf.alpha_, None, clf.model_.kernel,
                self.C, self.eps,
            )
        except AssertionError:
            return len(st["batches"]), len(st["batches"])
        return len(st["batches"]), 0

    def exact(self, st: dict, res) -> Dict[str, float]:
        clf = res["clf"]
        p256 = []
        for rec, fr in zip(clf.records_, res["fits"]):
            p256.append(project_stream(
                fr.trace, fr.trace, CASCADE, PROJECT_P,
                n_new=rec.n_new if rec.kind == "partial_fit" else 0,
                n_sv=fr.stats.n_sv, avg_nnz=fr.trace.avg_nnz,
            ).time_to_refresh)
        return {
            "vtime_ms": 1e3 * float(np.median(res["ttr"])),
            "vtime_p256_ms": 1e3 * float(np.median(p256)),
            "accuracy": float(np.mean(res["acc"])),
        }

    def layers(self, st: dict, res) -> Dict[str, float]:
        out = _fit_layers(res["fits"])
        recs = res["clf"].records_
        out.update({
            "stream.refits": len(recs),
            "stream.refit_iterations": sum(r.iterations for r in recs),
            "stream.seed_kernel_evals": sum(r.seed_kernel_evals for r in recs),
            "stream.solver_kernel_evals": sum(r.solver_kernel_evals for r in recs),
        })
        return out


WORKLOADS = {w.name: w for w in (Train(), Serve(), Stream(), TrainFaulted())}
