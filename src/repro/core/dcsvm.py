"""Divide-and-conquer training with warm-started exact refinement.

The exact distributed SMO (:func:`repro.core.fit_parallel`) is the
accuracy anchor, but a cold start pays the full iteration history on
every fit.  DC-SVM (Hsieh et al., 1311.0914) and parallel block
minimization (Chiang et al., 1608.02010) observe that the kernel matrix
of a well-clustered problem is nearly block diagonal, so most of the
dual ascent can happen inside small concurrent subproblems.

A subtlety this implementation is built around: the exact solver is
*path conserving*.  Seeded from one of its own intermediate iterates it
resumes the trajectory and rough + refine costs exactly what cold did;
seeded from an off-path point (a one-shot concatenation of
independently solved cluster duals, a cascade SV union, a subsample
solution) the refinement costs as much as a cold solve.  The only warm
starts that pay are points *near the solver's own optimum*.  The outer
loop here therefore iterates blocks to (near) convergence instead of
concatenating once:

1. **Partition** (:func:`partition_samples` / :class:`_Rotator`): a
   seeded, capacity-constrained kernel-k-means pass.  Landmarks come
   from a fixed candidate pool whose similarity columns are cached, so
   re-partitioning each round ("rotation") costs kernel evaluations
   only on first touch.  Every sample is assigned to its most-similar
   landmark subject to per-class capacities, so each cluster holds a
   balanced share of both labels (the property-tested guarantee).  The
   assignment is a pure function of ``(X, y, k, kernel, seed)`` —
   independent of the process count.
2. **Concurrent gradient-corrected sub-solves** (:func:`_solve_round`):
   one SPMD job per round; ranks are carved into per-cluster
   sub-communicators (:func:`repro.mpi.topology.carve`), each cluster
   runs the unmodified per-rank engine seeded with its slice of the
   *global* dual α and gradient f.  That makes each sub-solve the exact
   block subproblem "optimize α on this cluster with every other block
   frozen", so both collective suites and fault injection work inside
   subproblems, and the job's virtual makespan models the clusters
   running concurrently.
3. **Line-searched merge**: the blockwise step d = α_new − α is applied
   with the exact Cauchy step ω* = min(1, dᵀg / dᵀQd), which guarantees
   monotone dual ascent (plain Jacobi block steps oscillate).  The
   gradient update Δf = K·(d∘y) reuses a kernel-column cache — the
   changed coordinates recur heavily across rounds, so steady-state
   rounds cost flops, not kernel evaluations.
4. **Stop + project**: rounds rotate the partition seed (so every
   violator pair eventually co-locates) until the solver's own
   convergence measure β_low − β_up falls under a small multiple of ε,
   then :func:`project_feasible` repairs the float drift and the result
   seeds the exact solve as ``warm_start_alpha``.

Correctness contract: the final model is produced by the *exact*
solver, so DC changes only where the solve starts, never where it
converges — the equivalence harness (``tests/core/test_dc_equivalence``)
certifies KKT residual, objective gap and decision-function agreement
against the cold solve for every (levels, clusters, nprocs, comm,
kernel) cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..config import RunConfig
from ..mpi import run_spmd
from ..mpi.topology import carve
from ..perfmodel import costs
from ..perfmodel.machine import MachineSpec
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .params import SVMParams
from .parallel import solve_rank
from .sets import up_low_masks
from .shrinking import Heuristic, unsafe_variant
from .state import make_blocks
from .wss_policies import resolve_wss

#: cap on the candidate pool used for kernel-k-means++ landmark seeding
_LANDMARK_POOL = 256

#: the outer loop stops when β_low − β_up ≤ this multiple of ε; the
#: exact refinement closes the remaining factor in a few hundred
#: iterations, whereas stopping much earlier forfeits most of the win
_GAP_TARGET_FACTOR = 4.0

#: sub-solves run at tolerance max(gap / divisor, ε) — loose while the
#: outer gap is large, tightening as the loop closes in
_SUB_EPS_DIVISOR = 8.0

#: a level breaks out early after this many rounds without the gap
#: improving by at least (1 − _STALL_FACTOR)
_STALL_ROUNDS = 25
_STALL_FACTOR = 0.995

#: hard per-level round budget (a backstop, not a tuning knob)
_MAX_ROUNDS = 1000

#: the sub-solve heuristic: shrinking pays (a sub-iteration's γ update
#: scans only the active samples), but reconstruction would rebuild γ
#: from the cluster's alphas alone and silently drop the frozen blocks'
#: contribution carried by ``gamma0`` — so sub-solves always run the
#: permanent-elimination variant.  The approximation is harmless here:
#: a sub-solve only proposes a feasible block step, and the driver's
#: line search + the final exact refinement absorb any slack.
_SUB_HEUR = unsafe_variant("multi5pc", name="dc-sub")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DCConfig:
    """Knobs of the divide-and-conquer outer loop.

    ``levels`` stacks partition granularities DC-SVM style: the loop
    starts at ``clusters**levels`` subproblems (cheap rounds, loose gap
    target) and coarsens level by level down to ``clusters``, which is
    driven to the final gap target.  ``seed`` drives the landmark pool
    and its per-round rotation only — two runs with the same seed
    produce identical partitions regardless of process count.
    """

    levels: int = 1
    clusters: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"dc levels must be >= 1, got {self.levels}")
        if self.clusters < 2:
            raise ValueError(f"dc clusters must be >= 2, got {self.clusters}")

    @classmethod
    def parse(cls, spec: str) -> "DCConfig":
        """Parse a CLI spec: ``"4"`` (clusters) or
        ``"clusters=4,levels=2,seed=7"`` (any subset, any order)."""
        spec = spec.strip()
        if not spec:
            raise ValueError("empty dc spec")
        kwargs = {}
        for item in spec.split(","):
            item = item.strip()
            if "=" not in item:
                kwargs["clusters"] = int(item)
                continue
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("levels", "clusters", "seed"):
                raise ValueError(
                    f"unknown dc knob {key!r} (levels | clusters | seed)"
                )
            kwargs[key] = int(value)
        return cls(**kwargs)

    def __str__(self) -> str:
        return (
            f"levels={self.levels},clusters={self.clusters},seed={self.seed}"
        )


def as_dc(value: Any) -> Optional[DCConfig]:
    """Coerce ``None`` / :class:`DCConfig` / spec string / int / dict."""
    if value is None or isinstance(value, DCConfig):
        return value
    if isinstance(value, str):
        return DCConfig.parse(value)
    if isinstance(value, int):
        return DCConfig(clusters=value)
    if isinstance(value, dict):
        return DCConfig(**value)
    raise TypeError(
        f"dc must be a DCConfig, spec string, int or dict; got {type(value)!r}"
    )


# ----------------------------------------------------------------------
# stage 1: the seeded label-balanced kernel partitioner
# ----------------------------------------------------------------------
def _balanced_assign(S: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Capacity-constrained greedy assignment from a similarity matrix.

    Each class is distributed over the clusters independently: samples
    claim their most-similar landmark in decreasing-confidence order,
    subject to balanced per-class capacities (between ``floor(n_c/k)``
    and ``ceil(n_c/k)`` samples of class ``c`` per cluster).
    """
    n = S.shape[0]
    prefs = np.argsort(-S, axis=1, kind="stable")
    assign = np.full(n, -1, dtype=np.int64)
    for sign in (1.0, -1.0):
        members = np.flatnonzero(y == sign)
        if members.size == 0:
            continue
        base, extra = divmod(members.size, k)
        capacity = np.array(
            [base + (1 if j < extra else 0) for j in range(k)], dtype=np.int64
        )
        # decreasing best-similarity order, global index as tie-break:
        # confident samples claim their landmark first, the tail fills
        # the remaining capacity
        order = members[
            np.lexsort((members, -S[members, prefs[members, 0]]))
        ]
        for i in order:
            for j in prefs[i]:
                if capacity[j] > 0:
                    assign[i] = j
                    capacity[j] -= 1
                    break
    return assign


def partition_samples(
    X: CSRMatrix,
    y: np.ndarray,
    k: int,
    kernel,
    seed: int = 0,
) -> np.ndarray:
    """Assign every sample to one of ``k`` clusters; returns the int
    assignment array.

    Capacity-constrained kernel k-means: ``k`` landmarks are chosen by
    kernel-k-means++ (greedy farthest-point in kernel distance over a
    seeded candidate pool), then each class is distributed over the
    clusters independently — samples claim their most-similar landmark
    in decreasing-confidence order, subject to balanced per-class
    capacities.  Guarantees (property-tested):

    - every sample is assigned exactly once, to a cluster in ``[0, k)``;
    - cluster ``j`` holds between ``floor(n_c/k)`` and ``ceil(n_c/k)``
      samples of each class ``c`` (the label-balance bound);
    - the assignment depends only on ``(X, y, k, kernel, seed)`` — it is
      bit-identical for identical seeds at any process count.
    """
    n = X.shape[0]
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"{y.size} labels for {n} samples")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if k == 1:
        return np.zeros(n, dtype=np.int64)

    rng = np.random.default_rng(seed)
    norms = X.row_norms_sq()
    diag = kernel.diag(norms)

    # -- kernel-k-means++ landmark seeding over a bounded pool ----------
    # the pool must hold at least k distinct candidates
    pool_size = min(n, max(_LANDMARK_POOL, k))
    pool = np.sort(rng.choice(n, size=pool_size, replace=False))
    Xp = X.take_rows(pool)
    np_pool = norms[pool]
    # pairwise kernel over the pool: small (≤ _LANDMARK_POOL²)
    Kp = kernel.block(Xp, np_pool, Xp, np_pool)
    dp = diag[pool]
    # kernel distance d²(a, b) = Φ(a,a) + Φ(b,b) − 2Φ(a,b)
    first = int(rng.integers(len(pool)))
    chosen = [first]
    mind = dp + dp[first] - 2.0 * Kp[:, first]
    while len(chosen) < k:
        nxt = int(np.argmax(mind))  # argmax breaks ties at lowest index
        chosen.append(nxt)
        mind = np.minimum(mind, dp + dp[nxt] - 2.0 * Kp[:, nxt])
    landmarks = pool[np.asarray(chosen, dtype=np.int64)]

    # -- similarities of every sample to every landmark -----------------
    Xl = X.take_rows(landmarks)
    S = kernel.block(X, norms, Xl, norms[landmarks])  # (n, k)
    # similarity → preference: higher Φ = closer in kernel distance
    # (the −2Φ term is the only sample-dependent part of d²)
    return _balanced_assign(S, y, k)


class _Rotator:
    """Per-round rotating partitioner over a fixed landmark pool.

    The pool and its pairwise kernel block are computed once; each
    round draws ``k`` fresh landmarks from the pool by seeded
    kernel-k-means++ (D² sampling, so different seeds explore different
    landmark subsets) and assigns with the shared capacity-constrained
    greedy.  Sample-to-landmark similarity columns are cached (a
    :class:`_ColumnCache` of its own, apart from the gradient update's,
    so each bill stays separate), so a round's kernel-evaluation bill
    covers only first-touched landmarks — steady-state rotation is pure
    flops.  Rotation is what breaks the Jacobi plateau: a violator pair
    split by one partition co-locates under another.
    """

    def __init__(self, X: CSRMatrix, y: np.ndarray, kernel, seed: int):
        self.y = np.asarray(y, dtype=np.float64)
        n = X.shape[0]
        self._cols = _ColumnCache(X, kernel)  # keyed by sample index
        norms = self._cols.norms
        rng = np.random.default_rng(seed)
        self.pool_size = min(n, _LANDMARK_POOL)
        self.pool = np.sort(rng.choice(n, size=self.pool_size, replace=False))
        Xp = X.take_rows(self.pool)
        np_pool = norms[self.pool]
        self.Kp = kernel.block(Xp, np_pool, Xp, np_pool)
        self.dp = kernel.diag(np_pool)

    def assign(self, k: int, seed: int) -> Tuple[np.ndarray, int]:
        """One rotated partition; returns ``(assignment, new_columns)``
        where ``new_columns`` is the number of landmark similarity
        columns that had to be evaluated (the round's kernel bill)."""
        k = min(k, self.pool_size)
        rng = np.random.default_rng(seed)
        first = int(rng.integers(self.pool_size))
        chosen = [first]
        d2 = np.maximum(0.0, self.dp + self.dp[first] - 2.0 * self.Kp[:, first])
        while len(chosen) < k:
            total = float(d2.sum())
            if total <= 0.0:
                nxt = int(rng.integers(self.pool_size))
            else:
                nxt = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
                nxt = min(nxt, self.pool_size - 1)
            chosen.append(nxt)
            d2 = np.minimum(
                d2,
                np.maximum(
                    0.0, self.dp + self.dp[nxt] - 2.0 * self.Kp[:, nxt]
                ),
            )
        S, n_new = self._cols.fetch(self.pool[np.asarray(chosen)])
        return _balanced_assign(S, self.y, k), n_new


class _ColumnCache:
    """Kernel-column cache for the gradient updates.

    The coordinates a round moves are dominated by the recurring
    support-vector boundary set, so across hundreds of rounds only a
    few hundred distinct columns are ever touched — the cache turns the
    per-round gradient update Δf = K[:, changed]·(d∘y) from an
    O(n·|changed|) kernel bill into a flops-only matvec after warmup.
    The modeled cost (:func:`repro.perfmodel.costs.dc_sync_time`)
    charges kernel evaluations for misses only, mirroring this.
    """

    def __init__(self, X: CSRMatrix, kernel):
        self.X, self.kernel = X, kernel
        self.norms = X.row_norms_sq()
        self._cols: Dict[int, np.ndarray] = {}

    def fetch(self, idx: np.ndarray) -> Tuple[np.ndarray, int]:
        """Columns ``K[:, idx]`` as an (n, len(idx)) block, plus the
        miss count actually evaluated."""
        missing = [int(j) for j in idx if int(j) not in self._cols]
        if missing:
            mi = np.asarray(missing, dtype=np.int64)
            block = self.kernel.block(
                self.X, self.norms, self.X.take_rows(mi), self.norms[mi]
            )
            for t, j in enumerate(missing):
                self._cols[j] = block[:, t]
        return (
            np.stack([self._cols[int(j)] for j in idx], axis=1),
            len(missing),
        )


# ----------------------------------------------------------------------
# feasibility projection of a dual vector
# ----------------------------------------------------------------------
def project_feasible(
    alpha: np.ndarray,
    y: np.ndarray,
    box: np.ndarray,
    *,
    max_sweeps: int = 64,
) -> np.ndarray:
    """Project a dual vector onto the feasible set
    ``{0 ≤ α ≤ box, sum(α·y) = 0}``.

    Alternates the equality correction (spread the residual over the
    coordinates that can still move in the needed direction) with the
    box clip; any residual the sweeps leave behind is absorbed by a
    deterministic greedy pass that walks α toward 0 — always possible,
    since α = 0 is feasible.  Handles the degenerate inputs the
    property tests pin: all-zero (identity), all-at-bound, and
    single-class clusters (projects to all-zero).
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    box = np.broadcast_to(np.asarray(box, dtype=np.float64), (n,))
    a = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, box)
    if n == 0:
        return a
    scale = max(1.0, float(box.max(initial=0.0)))
    tol = 1e-12 * scale * max(1, n)

    for _ in range(max_sweeps):
        r = float(a @ y)
        if abs(r) <= tol:
            return a
        # coordinates that can move α·y toward −sign(r)
        if r > 0:
            movable = ((y > 0) & (a > 0)) | ((y < 0) & (a < box))
        else:
            movable = ((y > 0) & (a < box)) | ((y < 0) & (a > 0))
        m = int(np.count_nonzero(movable))
        if m == 0:
            break
        a[movable] -= y[movable] * (r / m)
        np.clip(a, 0.0, box, out=a)

    # deterministic absorption: reduce same-sign contributions toward 0
    r = float(a @ y)
    if abs(r) > 0.0:
        sgn = 1.0 if r > 0 else -1.0
        for i in np.flatnonzero((y * sgn > 0) & (a > 0)):
            take = min(float(a[i]), abs(r))
            a[i] -= take
            r -= sgn * take
            if abs(r) <= 0.0:
                break
    return np.clip(a, 0.0, box)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass
class RoundStats:
    """One outer round: a rotated partition, k concurrent sub-solves,
    a line-searched merge and the gradient sync."""

    round_index: int
    k: int
    cluster_sizes: List[int]
    #: per-cluster sub-solve iteration counts (for makespan projection)
    iterations: List[int]
    #: per-cluster kernel-evaluation counts — the projector derives the
    #: effective (shrunk) γ-update width from evals / (2 · iterations)
    kernel_evals: List[int]
    #: per-cluster pair-broadcast counts (resident-cache misses; the
    #: projector prices the owner-rooted broadcasts from these)
    pair_broadcasts: List[int]
    #: coordinates moved by the accepted step
    changed: int
    #: kernel columns evaluated for the gradient sync (cache misses)
    new_sync_cols: int
    #: landmark similarity columns evaluated for the rotation
    new_landmark_cols: int
    #: accepted line-search step ω* ∈ (0, 1]
    step: float
    #: β_low − β_up after the merge
    gap: float
    vtime: float
    wall_time: float
    bytes_sent: int
    messages: int

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "k": self.k,
            "cluster_sizes": self.cluster_sizes,
            "iterations": self.iterations,
            "kernel_evals": self.kernel_evals,
            "pair_broadcasts": self.pair_broadcasts,
            "changed": self.changed,
            "new_sync_cols": self.new_sync_cols,
            "new_landmark_cols": self.new_landmark_cols,
            "step": self.step,
            "gap": self.gap,
            "vtime": self.vtime,
        }


@dataclass
class LevelStats:
    """Outcome of one DC level (all rounds at one partition count)."""

    level: int
    n_clusters: int
    rounds: List[RoundStats] = field(default_factory=list)
    #: modeled time of the level: sub-solve makespans plus the costed
    #: rotation / gradient-sync overheads of its rounds
    vtime: float = 0.0
    wall_time: float = 0.0
    bytes_sent: int = 0
    messages: int = 0
    #: the last round's assignment (for inspection / tests)
    assignments: Optional[np.ndarray] = None

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def iterations(self) -> int:
        """Total sub-solve iterations across the level's rounds."""
        return sum(sum(r.iterations) for r in self.rounds)

    @property
    def cluster_sizes(self) -> List[int]:
        return self.rounds[-1].cluster_sizes if self.rounds else []

    @property
    def final_gap(self) -> float:
        return self.rounds[-1].gap if self.rounds else float("inf")


@dataclass
class DCStats:
    """Outer-loop summary attached to the final :class:`FitResult`."""

    config: DCConfig
    levels: List[LevelStats]
    #: modeled outer-loop time: sub-solve makespans plus the costed
    #: setup / rotation / sync / projection overheads
    outer_vtime: float
    outer_wall: float
    #: β_low − β_up of the warm start handed to the refinement
    final_gap: float = float("inf")
    #: the projected warm start handed to the exact refinement
    warm_alpha: Optional[np.ndarray] = None

    @property
    def assignments(self) -> Optional[np.ndarray]:
        """The last rotated cluster assignment."""
        return self.levels[-1].assignments if self.levels else None

    @property
    def n_rounds(self) -> int:
        return sum(ls.n_rounds for ls in self.levels)

    @property
    def sub_iterations(self) -> int:
        return sum(ls.iterations for ls in self.levels)

    def to_dict(self) -> dict:
        return {
            "config": str(self.config),
            "outer_vtime": self.outer_vtime,
            "outer_wall": self.outer_wall,
            "final_gap": self.final_gap,
            "n_rounds": self.n_rounds,
            "sub_iterations": self.sub_iterations,
            "levels": [
                {
                    "level": ls.level,
                    "n_clusters": ls.n_clusters,
                    "n_rounds": ls.n_rounds,
                    "iterations": ls.iterations,
                    "final_gap": ls.final_gap,
                    "vtime": ls.vtime,
                    "wall_time": ls.wall_time,
                    "bytes_sent": ls.bytes_sent,
                    "messages": ls.messages,
                    "rounds": [r.to_dict() for r in ls.rounds],
                }
                for ls in self.levels
            ],
        }


# ----------------------------------------------------------------------
# stage 2: one round of concurrent sub-solves on the SPMD runtime
# ----------------------------------------------------------------------
def _solve_round(
    X: CSRMatrix,
    y: np.ndarray,
    alpha: np.ndarray,
    f: np.ndarray,
    assign: np.ndarray,
    k: int,
    params: SVMParams,
    cfg: RunConfig,
):
    """Solve the ``k`` block subproblems of one partition concurrently.

    One SPMD job: ranks are grouped contiguously, each group is carved
    into a sub-communicator, and each group solves its contiguous share
    of the clusters sequentially.  Groups never exchange messages, so
    the job's virtual makespan is the time of the slowest group — the
    concurrent-clusters model.

    Each cluster's shards are seeded with the *global* α and gradient f
    restricted to the cluster (``gamma0=f[idx]``, alphas copied in, no
    stale-marking), which makes the sub-solve exactly the block
    subproblem "optimize these α with every other block frozen".  The
    sub-solves always run the permanent-elimination heuristic
    ``_SUB_HEUR``: shrinking pays, but a reconstruction would rebuild γ
    from the cluster's alphas alone and silently drop the frozen
    blocks' contribution carried by ``gamma0``.

    Returns ``(block_alpha, sizes, iters, spmd)`` where ``block_alpha``
    is the blockwise minimizer (the line search back on the driver
    decides how far to move toward it).
    """
    p = cfg.nprocs
    sub_heur = _SUB_HEUR
    # sub-solves honour the run's WSS policy and column-cache budget —
    # the budget is per rank, so carved sub-communicators keep it as-is
    wss = resolve_wss(cfg.wss)
    cache_bytes = int(cfg.kernel_cache_mb * 1024 * 1024)

    cluster_idx = [np.flatnonzero(assign == c) for c in range(k)]
    cluster_idx = [ci for ci in cluster_idx if ci.size]
    k_eff = len(cluster_idx)
    ngroups = min(p, k_eff)
    gpart = BlockPartition(p, ngroups)  # ranks → groups
    cpart = BlockPartition(k_eff, ngroups)  # clusters → groups

    sub = []
    for c, idx in enumerate(cluster_idx):
        group = cpart.owner(c)
        # never give a cluster more ranks than samples: tiny clusters
        # run on a narrower carve, the group's tail ranks sit out
        sub_p = min(gpart.count(group), idx.size)
        part_c = BlockPartition(idx.size, sub_p)
        blocks = make_blocks(X.take_rows(idx), y[idx], part_c, gamma0=f[idx])
        for r, blk in enumerate(blocks):
            lo, hi = part_c.bounds(r)
            blk.alpha[:] = alpha[idx[lo:hi]]
        sub.append((idx, part_c, blocks))

    def entry(comm):
        group = gpart.owner(comm.rank)
        glo, _ = gpart.bounds(group)
        out = []
        for c in range(*cpart.bounds(group)):
            _, part_c, blocks = sub[c]
            subcomm = carve(comm, range(glo, glo + part_c.p))
            if subcomm is None:
                continue  # this cluster is narrower than the group
            rr = solve_rank(
                subcomm, blocks[subcomm.rank], part_c, params, sub_heur,
                wss=wss, cache_bytes=cache_bytes,
            )
            out.append((c, subcomm.rank, rr))
        return out

    spmd = run_spmd(
        entry, p, machine=cfg.machine, trace=cfg.trace,
        deadlock_timeout=cfg.deadlock_timeout, faults=cfg.faults,
        comm=cfg.comm,
    )

    per_cluster: dict = {}
    for rank_out in spmd.results:
        for c, sub_rank, rr in rank_out:
            per_cluster.setdefault(c, {})[sub_rank] = rr

    block_alpha = alpha.copy()
    sizes, iters, evals, bcasts = [], [], [], []
    for c, (idx, part_c, _) in enumerate(sub):
        ranked = per_cluster[c]
        results = [ranked[r] for r in range(part_c.p)]
        block_alpha[idx] = np.concatenate([r.alpha for r in results])
        sizes.append(int(idx.size))
        iters.append(int(results[0].iterations))
        evals.append(int(sum(r.trace.kernel_evals for r in results)))
        # like SolveTrace.merge: every rank observes the same broadcast
        # sequence, so the cluster count is the max over its ranks
        bcasts.append(
            int(max(r.trace.pair_broadcasts for r in results))
        )
    return block_alpha, sizes, iters, evals, bcasts, spmd


# ----------------------------------------------------------------------
# the outer loop
# ----------------------------------------------------------------------
def _gap(alpha: np.ndarray, y: np.ndarray, f: np.ndarray, box) -> float:
    """β_low − β_up under the solver's own convergence convention."""
    up, low = up_low_masks(alpha, y, box)
    beta_up = float(np.min(f[up])) if up.any() else np.inf
    beta_low = float(np.max(f[low])) if low.any() else -np.inf
    return beta_low - beta_up


def dc_warm_start(
    X: CSRMatrix,
    y: np.ndarray,
    params: SVMParams,
    cfg: RunConfig,
    *,
    heur: Heuristic,
) -> Tuple[np.ndarray, DCStats]:
    """Run the DC outer loop and return ``(warm_alpha, stats)``.

    ``warm_alpha`` is feasibility-projected (box + equality) and ready
    for :func:`repro.core.fit_parallel`'s ``warm_start_alpha``;
    ``stats.outer_vtime`` carries the modeled outer-loop cost (the
    per-round sub-solve makespans plus the costed setup / rotation /
    gradient-sync / projection overheads) so total-modeled-time
    comparisons against a cold solve stay honest.

    ``heur`` is accepted for signature symmetry with the refinement but
    intentionally unused: sub-solves always run the shrink-without-
    reconstruction heuristic ``_SUB_HEUR`` (see :func:`_solve_round`).
    """
    del heur  # sub-solves pin their own heuristic; see _solve_round
    dc = as_dc(cfg.dc)
    if dc is None:
        raise ValueError("dc_warm_start called without a dc config")
    machine = cfg.machine or MachineSpec.cascade()
    n = X.shape[0]
    p = cfg.nprocs
    avg_nnz = X.avg_row_nnz or 1.0
    box = params.box_for(y)
    eps = params.eps

    rotator = _Rotator(X, y, params.kernel, seed=dc.seed)
    col_cache = _ColumnCache(X, params.kernel)
    # one-time modeled setup: pool similarity block + replicating the
    # sample rows to the ranks (DC re-clusters every round, so every
    # rank keeps the full row set — the standard DC-SVM layout)
    outer_vtime = costs.dc_pool_time(machine, n, avg_nnz) + costs.dc_scatter_time(
        machine, n, p, avg_nnz
    )

    # level schedule: finest (clusters**levels) → coarsest (clusters),
    # gap targets interpolated geometrically down to the final target
    final_target = _GAP_TARGET_FACTOR * eps
    ks, targets = [], []
    for i, level in enumerate(range(dc.levels, 0, -1)):
        k = min(dc.clusters ** level, max(2, n // 2))
        t = (i + 1) / dc.levels
        # initial gap is 2 at α = 0 for ±1 labels; interpolate from there
        targets.append(float(2.0 ** (1.0 - t) * final_target ** t))
        ks.append(k)

    alpha = np.zeros(n)
    f = -y.astype(np.float64).copy()  # gradient at α = 0
    gap = _gap(alpha, y, f, box)
    levels: List[LevelStats] = []
    round_counter = 0
    t_outer = time.perf_counter()

    for level, (k, target) in enumerate(zip(ks, targets), start=1):
        lstats = LevelStats(level=level, n_clusters=k)
        best_gap, stall = gap, 0
        while gap > target and lstats.n_rounds < _MAX_ROUNDS:
            t_round = time.perf_counter()
            sub_eps = max(gap / _SUB_EPS_DIVISOR, eps)
            sub_params = replace(params, eps=sub_eps)
            assign, new_landmarks = rotator.assign(
                k, seed=dc.seed + round_counter
            )
            block_alpha, sizes, iters, evals, bcasts, spmd = _solve_round(
                X, y, alpha, f, assign, k, sub_params, cfg
            )

            # line-searched merge: d is the blockwise step; the exact
            # Cauchy step ω* = min(1, dᵀg / dᵀQd) guarantees monotone
            # dual ascent (ω ∈ [0, 1] keeps feasibility by convexity)
            d = block_alpha - alpha
            changed = np.flatnonzero(d != 0.0)
            step = 1.0
            if changed.size:
                cols, new_sync = col_cache.fetch(changed)
                df = cols @ (d[changed] * y[changed])
                dqd = float(d[changed] @ (y[changed] * df[changed]))
                dlin = float(-d[changed] @ (y[changed] * f[changed]))
                if dqd > 0.0:
                    step = min(1.0, dlin / dqd)
                alpha = alpha + step * d
                f = f + step * df
            else:
                new_sync = 0
            gap = _gap(alpha, y, f, box)

            outer_vtime += spmd.vtime
            outer_vtime += costs.dc_rotate_time(
                machine, n, k, p, new_landmarks, avg_nnz
            )
            outer_vtime += costs.dc_sync_time(
                machine, n, p, int(changed.size), new_sync, avg_nnz
            )
            lstats.vtime += spmd.vtime
            lstats.wall_time += time.perf_counter() - t_round
            lstats.bytes_sent += spmd.total_bytes_sent
            lstats.messages += spmd.total_messages
            lstats.assignments = assign
            lstats.rounds.append(
                RoundStats(
                    round_index=round_counter,
                    k=len(sizes),
                    cluster_sizes=sizes,
                    iterations=iters,
                    kernel_evals=evals,
                    pair_broadcasts=bcasts,
                    changed=int(changed.size),
                    new_sync_cols=new_sync,
                    new_landmark_cols=new_landmarks,
                    step=step,
                    gap=gap,
                    vtime=spmd.vtime,
                    wall_time=time.perf_counter() - t_round,
                    bytes_sent=spmd.total_bytes_sent,
                    messages=spmd.total_messages,
                )
            )
            round_counter += 1
            if gap < best_gap * _STALL_FACTOR:
                best_gap, stall = gap, 0
            else:
                stall += 1
                if stall >= _STALL_ROUNDS:
                    break  # the refinement absorbs the remaining gap
        levels.append(lstats)

    warm = project_feasible(alpha, y, box)
    outer_vtime += costs.dc_project_time(machine, n)
    stats = DCStats(
        config=dc,
        levels=levels,
        outer_vtime=outer_vtime,
        outer_wall=time.perf_counter() - t_outer,
        final_gap=gap,
        warm_alpha=warm,
    )
    return warm, stats
