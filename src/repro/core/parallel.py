"""The distributed SMO engine — Algorithms 2, 4 and 5.

One :class:`RankSolver` runs per simulated MPI rank.  The engine is a
single iteration loop parameterized by the shrinking heuristic:

- ``original`` (Algorithm 2): shrinking never fires;
- ``single*`` (Algorithm 4): shrink until the active problem converges
  at 2ε, reconstruct gradients once, disable shrinking, finish exactly;
- ``multi*`` (Algorithm 5): converge the shrunk problem at 20ε,
  reconstruct, then repeat [converge at 2ε → reconstruct] until a
  reconstruction certifies global optimality.

Every iteration performs, per the paper:

1. route the two working-set samples through rank 0 and broadcast them
   (Algorithm 2 lines 3-9);
2. the analytic α pair update, redundantly on every rank (3 kernel
   evaluations, Eq. 6-7);
3. the γ update over the rank's *active* samples (2 kernel-row
   evaluations, Eq. 2), plus set bookkeeping;
4. optionally a shrink pass (Eq. 9) when the countdown δ_c fires,
   followed by the Allreduce that establishes the next threshold from
   the global active-set size (§IV-A2);
5. two scalar Allreduces (MINLOC/MAXLOC) electing the next worst
   violators (Eq. 3).

Determinism: value ties in the violator election break toward the
smallest global index, so the iteration sequence — and therefore the
returned model — is bitwise identical for every process count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..kernels import Kernel, KernelColumnCache
from ..mpi.communicator import Comm
from ..mpi.reduceops import MAXLOC, MAXLOC_PAYLOAD, MINLOC, MINLOC_MAXLOC, SUM
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .gradient import apply_pair_update
from .params import ConvergenceError, SVMParams
from .reconstruction import gradient_reconstruction
from .sets import free_mask, low_mask, shrinkable_mask, up_low_masks, up_mask
from .shrinking import Heuristic
from .state import CompactActiveSet, LocalBlock
from .trace import RankTrace
from .wss import (
    NO_INDEX,
    Violators,
    beta_from_moments,
    local_extrema,
    solve_pair,
)
from .wss_policies import (
    MAX_CONSECUTIVE_REUSES,
    PoolSample,
    ReusePool,
    get_wss_policy,
    second_order_best,
)

TAG_SAMPLE_UP = 1
TAG_SAMPLE_LOW = 2


@dataclass
class RankResult:
    """Everything a rank returns to the driver."""

    #: ``alpha``, ``gamma`` and ``trace`` are released (``None``) once
    #: ``fit_parallel`` / ``fit_svr_parallel`` have assembled the result
    alpha: Optional[np.ndarray]
    gamma: Optional[np.ndarray]
    beta: float
    beta_up: float
    beta_low: float
    iterations: int
    trace: Optional[RankTrace]
    vtime: float


class RankSolver:
    """Per-rank solver state machine."""

    def __init__(
        self,
        comm: Comm,
        blk: LocalBlock,
        part: BlockPartition,
        params: SVMParams,
        heuristic: Heuristic,
        *,
        wss="mvp",
        cache_bytes: int = 0,
        warm_seeded: bool = False,
    ) -> None:
        self.comm = comm
        self.blk = blk
        self.part = part
        self.params = params
        self.heur = heuristic
        #: the block arrived with trusted (exact) gradients: inactive
        #: samples are a deliberate warm-start active-set seed, not a
        #: stale-α marker, so the solve skips the initial
        #: reconstruction ring and lets the heuristic's normal
        #: end-of-phase reconstruction verify them later
        self.warm_seeded = warm_seeded
        self.kernel: Kernel = params.kernel
        self.C = params.box_for(blk.y)  # per-sample box constraints
        self.trace = RankTrace(rank=comm.rank, n_local=blk.n_local)
        self.iterations = 0
        self._initial_threshold = heuristic.initial_threshold(part.n)
        self.delta_c = self._initial_threshold
        self.shrink_enabled = heuristic.shrinks
        self.avg_nnz = blk.X.avg_row_nnz or 1.0
        # working-set-selection policy + training-side column cache.
        # The provider path (columns produced one at a time through the
        # cache, actual evals charged) engages for any non-mvp policy or
        # a positive budget; the default mvp/budget-0 combination keeps
        # the historical cache-free code paths bitwise untouched.
        self.wss = get_wss_policy(wss)
        self._colcache = (
            KernelColumnCache(int(cache_bytes))
            if (int(cache_bytes) > 0 or self.wss.uses_provider)
            else None
        )
        self._phase_eps = params.eps  # eps of the phase currently running
        self._epoch = 0  # active-set epoch (bumped on shrink/reconstruct)
        self._diag_memo: "tuple | None" = None
        self._payloads: dict = {}  # gidx -> mutable payload (non-mvp only)
        # planning-ahead reuse pool (tracked recent working-set samples)
        self._pool = (
            ReusePool(self.kernel)
            if self.wss.reuse_eta is not None
            else None
        )
        self._last_gain = math.inf  # gain of the last elected pair
        self._reuse_run = 0  # consecutive reuses since the last election

    # ------------------------------------------------------------------
    # elementary steps
    # ------------------------------------------------------------------
    def select(self) -> Violators:
        """Elect the next working pair under the configured WSS policy.

        ``mvp`` runs the historical first-order election unchanged; the
        second-order policies run the two-phase election, and
        ``planning_ahead`` first tries a zero-communication reuse of the
        previous pair.
        """
        if self.wss.reuse_eta is not None:
            viol = self._take_reuse()
            if viol is not None:
                return viol
        if self.wss.second_order:
            return self._select_second_order()
        return self._select_mvp()

    def _select_mvp(self) -> Violators:
        """Local extrema over the active set + global MINLOC/MAXLOC election."""
        blk = self.blk
        idx, _, _ = blk.active_view()
        a = blk.alpha[idx]
        yv = blk.y[idx]
        g = blk.gamma[idx]
        Cv = self.C[idx]
        up = up_mask(a, yv, Cv)
        low = low_mask(a, yv, Cv)
        bu, ku, bl, kl = local_extrema(
            g, up, low, 0, rank=self.comm.rank, local_indices=idx
        )
        gi_up = blk.global_start + int(idx[ku]) if ku != NO_INDEX else NO_INDEX
        gi_low = blk.global_start + int(idx[kl]) if kl != NO_INDEX else NO_INDEX
        # a handful of flops per active sample for masks and argmin/argmax
        self.comm.advance(self.comm.machine.time_flops(8.0 * idx.size))
        up_v, up_i = self.comm.allreduce((bu, gi_up), MINLOC)
        low_v, low_i = self.comm.allreduce((bl, gi_low), MAXLOC)
        return Violators(
            beta_up=up_v, i_up=up_i, gamma_up=up_v,
            beta_low=low_v, i_low=low_i, gamma_low=low_v,
        )

    def _select_second_order(self) -> Violators:
        """Two-phase WSS2 election (legacy comm pattern).

        Phase A is the first-order election (two pickled allreduces) —
        its β_low remains the convergence bound, and on a converged (or
        empty) phase the first-order pair is returned directly.  Phase B
        broadcasts the up sample, scores every local low candidate by
        b²/a against the up sample's local kernel column, and combines
        (gain, global index, γ_j) with one MAXLOC_PAYLOAD allreduce.
        """
        blk, comm = self.blk, self.comm
        idx, Xa, na = blk.active_view()
        a = blk.alpha[idx]
        yv = blk.y[idx]
        g = blk.gamma[idx]
        Cv = self.C[idx]
        up, low = up_low_masks(a, yv, Cv)
        bu, ku, bl, kl = local_extrema(
            g, up, low, 0, rank=comm.rank, local_indices=idx
        )
        gi_up = blk.global_start + int(idx[ku]) if ku != NO_INDEX else NO_INDEX
        gi_low = blk.global_start + int(idx[kl]) if kl != NO_INDEX else NO_INDEX
        comm.advance(comm.machine.time_flops(8.0 * idx.size))
        up_v, up_i = comm.allreduce((bu, gi_up), MINLOC)
        low_v, low_i = comm.allreduce((bl, gi_low), MAXLOC)
        first = Violators(
            beta_up=up_v, i_up=up_i, gamma_up=up_v,
            beta_low=low_v, i_low=low_i, gamma_low=low_v,
        )
        self._reuse_run = 0
        if (
            up_i == NO_INDEX
            or low_i == NO_INDEX
            or first.converged(self._phase_eps)
        ):
            return first
        pay_up = self._fetch_one(up_i, TAG_SAMPLE_UP)
        k_uu = self.kernel.self_value(pay_up[2])
        kcol_up = self._column(up_i, pay_up, Xa, na)
        diag = self._diag(na)
        # curvature scores: ~a dozen flops per low candidate
        comm.advance(comm.machine.time_flops(12.0 * idx.size))
        gain, j, gamma_j = second_order_best(
            g, low, kcol_up, diag, k_uu, up_v, blk.global_start + idx
        )
        out = comm.allreduce((gain, j, gamma_j), MAXLOC_PAYLOAD)
        self.trace.wss_elections += 1
        if int(out[1]) == NO_INDEX:
            # unreachable while phase A reports a violator (that sample
            # itself has positive b) — kept as a safe first-order step
            return first
        self._last_gain = float(out[0])
        return Violators(
            beta_up=up_v, i_up=up_i, gamma_up=up_v,
            beta_low=low_v, i_low=int(out[1]), gamma_low=float(out[2]),
        )

    # ------------------------------------------------------------------
    # planning-ahead reuse (shared by both engines)
    # ------------------------------------------------------------------
    def _take_reuse(self) -> "Violators | None":
        """Step a still-violating pool pair with zero communication.

        Allowed only when every rank reaches the same decision from
        redundantly known values: no pending/imminent shrink (the next
        election must carry fresh global bounds for the shrink mask),
        pool still valid for this active-set epoch, some pool pair
        still violating at the phase ε, projected gain at least
        ``reuse_eta`` of the last elected gain, and fewer than
        MAX_CONSECUTIVE_REUSES reuses since the last election.
        """
        if self._pool is None or len(self._pool) == 0:
            return None
        if self._reuse_run >= MAX_CONSECUTIVE_REUSES:
            return None
        if getattr(self, "_pending", None) is not None:
            return None
        if self.shrink_enabled and self.delta_c <= 1:
            # also keeps the shrink countdown from firing mid-reuse,
            # where viol carries pair γ instead of global β bounds
            return None
        best = self._pool.best_pair(self._phase_eps)
        self._charge_pool_evals()
        if best is None or best[0] < self.wss.reuse_eta * self._last_gain:
            return None
        gain, up, low = best
        self._reuse_run += 1
        self.trace.wss_reuses += 1
        return Violators(
            beta_up=up.gamma, i_up=up.gidx, gamma_up=up.gamma,
            beta_low=low.gamma, i_low=low.gidx, gamma_low=low.gamma,
        )

    def _charge_pool_evals(self) -> None:
        """Charge pair kernels the pool actually produced (memo misses
        — identical on every rank, so the virtual clocks stay aligned)."""
        n = self._pool.take_new_evals()
        if n:
            self.trace.kernel_evals += n
            self.trace.iter_kernel_evals += n
            self.comm.charge_kernel_evals(n, self.avg_nnz)

    def _observe_pair(
        self, viol, row_up, row_low, yu, yl, new_up, new_low,
        k_uu, k_ll, k_ul, d_up, d_low,
    ) -> None:
        """Fold the just-computed pair update into the reuse pool.

        The pair's new γ values replicate
        :func:`~repro.core.gradient.apply_pair_update` term by term
        (including the skip-on-zero-coefficient branches), so they are
        bitwise equal to the owner's array entries; bystander γ
        maintenance inside the pool applies the same arithmetic with
        locally computed pair kernels.
        """
        coef_up = yu * d_up
        coef_low = yl * d_low
        g_u, g_l = viol.gamma_up, viol.gamma_low
        if coef_up != 0.0:
            g_u = g_u + coef_up * k_uu
            g_l = g_l + coef_up * k_ul
        if coef_low != 0.0:
            g_u = g_u + coef_low * k_ul
            g_l = g_l + coef_low * k_ll
        pool = self._pool
        pool.seed_k(viol.i_up, viol.i_up, k_uu)
        pool.seed_k(viol.i_low, viol.i_low, k_ll)
        pool.seed_k(viol.i_up, viol.i_low, k_ul)
        pool.observe_update(
            PoolSample(
                gidx=viol.i_up, row=row_up, y=yu,
                C=self.params.box_for(yu), alpha=new_up, gamma=g_u,
            ),
            PoolSample(
                gidx=viol.i_low, row=row_low, y=yl,
                C=self.params.box_for(yl), alpha=new_low, gamma=g_l,
            ),
            coef_up, coef_low,
        )
        self._charge_pool_evals()

    # ------------------------------------------------------------------
    # training-side kernel-column provider (non-mvp policies / cache on)
    # ------------------------------------------------------------------
    def _column(self, gidx, payload, Xa, na) -> np.ndarray:
        """Φ(sample, active rows) through the per-rank column cache.

        Only actual production charges kernel evaluations — unlike the
        canonical accounting, a cache hit is free, which is the whole
        point of the budgeted cache.
        """
        cache = self._colcache
        col = cache.get(gidx)
        if col is None:
            rows = CSRMatrix.from_rows(
                [(payload[0], payload[1])], self.blk.X.shape[1]
            )
            col = self.kernel.block(Xa, na, rows, np.array([payload[2]]))[:, 0]
            cache.put(gidx, col)
            n = int(na.shape[0])
            self.trace.kernel_evals += n
            self.trace.iter_kernel_evals += n
            self.comm.charge_kernel_evals(n, self.avg_nnz)
        return col

    def _diag(self, norms_active) -> np.ndarray:
        """Φ(x_j, x_j) over the active rows, memoized per epoch (libsvm's
        QD vector); charged once per epoch like any produced column."""
        if self._diag_memo is not None and self._diag_memo[0] == self._epoch:
            return self._diag_memo[1]
        d = self.kernel.diag(norms_active)
        n = int(norms_active.shape[0])
        self.trace.kernel_evals += n
        self.trace.iter_kernel_evals += n
        self.comm.charge_kernel_evals(n, self.avg_nnz)
        self._diag_memo = (self._epoch, d)
        return d

    def _bump_epoch(self) -> None:
        """The active set changed: columns, diag and reuse plan are stale.

        The sample-payload stash survives — rows/y are immutable and α
        is refreshed redundantly after every pair update.
        """
        self._epoch += 1
        if self._colcache is not None:
            self._colcache.bump_epoch()
        self._diag_memo = None
        if self._pool is not None:
            # a shrunk sample must not be re-elected; the pool refills
            # from post-event broadcasts, which are all active
            self._pool.clear()

    def _fetch_one(self, gidx: int, tag: int):
        """Route one sample via rank 0 and broadcast it, with a stash.

        The stash contents are identical on every rank (every payload
        arrives by broadcast and α refreshes are redundant), so the
        hit/miss decision — and hence the communication pattern — needs
        no coordination.
        """
        ent = self._payloads.get(gidx)
        if ent is not None:
            return ent
        comm, blk = self.comm, self.blk
        owner = self.part.owner(gidx)
        payload = None
        if comm.rank == owner:
            if owner == 0:
                payload = blk.sample_payload(blk.to_local(gidx), copy=False)
            else:
                comm.send(blk.sample_payload(blk.to_local(gidx)), 0, tag)
        if comm.rank == 0 and owner != 0:
            payload = comm.recv(source=owner, tag=tag)
        payload = comm.bcast(payload, root=0)
        self.trace.pair_broadcasts += 1
        ent = list(payload)
        self._payloads[gidx] = ent
        return ent

    def fetch_pair(self, viol: Violators):
        """Route the two working-set samples via rank 0, then broadcast."""
        if self.wss.name != "mvp":
            # stash-aware movement: a sample already resident on every
            # rank (e.g. the phase-B up sample, or a reused pair) is free
            return (
                self._fetch_one(viol.i_up, TAG_SAMPLE_UP),
                self._fetch_one(viol.i_low, TAG_SAMPLE_LOW),
            )
        comm, blk = self.comm, self.blk
        payloads = [None, None]
        for slot, (gidx, tag) in enumerate(
            ((viol.i_up, TAG_SAMPLE_UP), (viol.i_low, TAG_SAMPLE_LOW))
        ):
            owner = self.part.owner(gidx)
            if comm.rank == owner:
                if owner == 0:
                    # consumed locally and only pickled at the bcast —
                    # CSR views are safe, skip the copy
                    payloads[slot] = blk.sample_payload(
                        blk.to_local(gidx), copy=False
                    )
                else:
                    comm.send(blk.sample_payload(blk.to_local(gidx)), 0, tag)
            if comm.rank == 0 and owner != 0:
                payloads[slot] = comm.recv(source=owner, tag=tag)
        self.trace.pair_broadcasts += 2
        return comm.bcast(tuple(payloads), root=0)

    def iterate_once(self, viol: Violators, shrink_active: bool) -> None:
        """One SMO step: α pair update, γ update, optional shrink pass."""
        comm, blk, kernel = self.comm, self.blk, self.kernel
        pay_up, pay_low = self.fetch_pair(viol)
        ui, uv, un, yu, au = pay_up
        li, lv, ln, yl, al = pay_low

        k_uu = kernel.self_value(un)
        k_ll = kernel.self_value(ln)
        k_ul = kernel.pair((ui, uv, un), (li, lv, ln))
        new_up, new_low = solve_pair(
            k_uu, k_ll, k_ul, yu, yl, au, al,
            viol.gamma_up, viol.gamma_low,
            self.params.box_for(yu), self.params.box_for(yl),
        )
        d_up = new_up - au
        d_low = new_low - al

        idx, Xa, na = blk.active_view()
        if self._colcache is None:
            # both gradient-update kernel columns from one blocked call
            pair = CSRMatrix.from_rows([(ui, uv), (li, lv)], blk.X.shape[1])
            k_cols = kernel.block(Xa, na, pair, np.array([un, ln]))
            k_up_col, k_low_col = k_cols[:, 0], k_cols[:, 1]
            evals = 2 * idx.size + 3
        else:
            # provider path: columns charge on production in _column,
            # only the 3 pair evaluations are charged here
            k_up_col = self._column(viol.i_up, pay_up, Xa, na)
            k_low_col = self._column(viol.i_low, pay_low, Xa, na)
            evals = 3
        gsub = blk.gamma[idx]
        apply_pair_update(gsub, k_up_col, k_low_col, yu, yl, d_up, d_low)
        blk.gamma[idx] = gsub
        if blk.owns_global(viol.i_up):
            blk.alpha[blk.to_local(viol.i_up)] = new_up
        if blk.owns_global(viol.i_low):
            blk.alpha[blk.to_local(viol.i_low)] = new_low
        if self.wss.name != "mvp":
            # keep the redundantly known stash α current
            ent = self._payloads.get(viol.i_up)
            if ent is not None:
                ent[4] = new_up
            ent = self._payloads.get(viol.i_low)
            if ent is not None:
                ent[4] = new_low
        if self.wss.reuse_eta is not None:
            self._observe_pair(
                viol, (ui, uv, un), (li, lv, ln), yu, yl, new_up, new_low,
                k_uu, k_ll, k_ul, d_up, d_low,
            )

        self.trace.kernel_evals += evals
        self.trace.iter_kernel_evals += evals
        comm.charge_kernel_evals(evals, self.avg_nnz)

        if shrink_active:
            self.delta_c -= 1
            if self.delta_c <= 0:
                self._shrink_pass(viol)

        self.trace.record_iteration(blk.n_active)
        if comm.rank == 0:
            self.trace.gap_history.append(viol.gap())
        self.iterations += 1
        if self.params.max_iter and self.iterations > self.params.max_iter:
            raise ConvergenceError(
                f"parallel SMO exceeded max_iter={self.params.max_iter} "
                f"(gap {viol.gap():.3e})"
            )

    def _shrink_pass(self, viol: Violators) -> None:
        """Eq. (9) elimination + the δ Allreduce (Alg. 4 lines 27-29).

        The Allreduce happens *before* the mask is applied (same message
        pattern and — in the normal case — same reduced value as folding
        it afterwards): when an over-eager threshold would shrink the
        *global* active set to empty, every rank sees ``delta == 0`` and
        skips the elimination.  Without the guard the empty active
        problem is trivially "converged", the solver reconstructs, the
        bounds have not moved, and the shrink fires again — a
        reconstruction loop that re-evaluates Θ(n·|α>0|) kernels per
        lap without progressing.
        """
        blk = self.blk
        idx, _, _ = blk.active_view()
        mask = shrinkable_mask(
            blk.alpha[idx], blk.y[idx], blk.gamma[idx],
            self.C[idx], viol.beta_up, viol.beta_low,
        )
        n_shrunk = int(np.count_nonzero(mask))
        delta = self.comm.allreduce(blk.n_active - n_shrunk, SUM)
        if delta == 0:
            # every rank reaches the same global decision: keep the
            # current active set and re-arm from the initial threshold
            self.trace.shrink_iters.append(self.iterations)
            self.trace.shrunk_per_event.append(0)
            self.delta_c = max(1.0, self._initial_threshold)
            return
        if n_shrunk:
            blk.active[idx[mask]] = False
            blk.invalidate_active()
        # collective (delta != 0 on every rank): the reuse plan lives on
        # all ranks and must drop everywhere or the reuse decision —
        # and with it the communication pattern — would diverge
        self._bump_epoch()
        self.trace.shrink_iters.append(self.iterations)
        self.trace.shrunk_per_event.append(n_shrunk)
        if self.heur.subsequent == "active_set":
            self.delta_c = max(1.0, float(delta))
        else:
            self.delta_c = max(1.0, self._initial_threshold)

    def reconstruct(self) -> Violators:
        """Algorithm 3, then a fresh violator election over all samples."""
        gradient_reconstruction(
            self.comm, self.blk, self.kernel, self.iterations, self.trace
        )
        self._bump_epoch()
        self._last_gain = math.inf
        return self.select()

    # ------------------------------------------------------------------
    # phases & drivers
    # ------------------------------------------------------------------
    def run_phase(
        self, viol: Violators, eps: float, shrink_active: bool
    ) -> Violators:
        """Iterate until β_up + 2·eps ≥ β_low on the active problem."""
        self._phase_eps = eps  # reuse/phase-B decisions test this bound
        while not viol.converged(eps):
            self.iterate_once(viol, shrink_active)
            viol = self.select()
        return viol

    def any_shrunk_global(self) -> bool:
        return bool(self.comm.allreduce(self.blk.n_shrunk, SUM) > 0)

    def solve(self) -> RankResult:
        params, heur = self.params, self.heur
        if not self.warm_seeded and self.any_shrunk_global():
            # warm start: blocks arrive with seeded alphas and every
            # sample marked stale; one reconstruction ring builds the
            # exact initial gradients from the seed
            viol = self.reconstruct()
        else:
            # cold start, or a warm-seeded block whose gradients are
            # exact by contract (warm_start_gamma): go straight to
            # selection — any seeded-inactive samples re-enter through
            # the heuristic's ordinary reconstruction passes below
            viol = self.select()

        if heur.reconstruction == "none":
            viol = self.run_phase(viol, params.eps, shrink_active=False)
        elif heur.reconstruction == "never":
            # CA-SVM-style permanent elimination: shrink, never repair.
            # Fast but approximate — the mode the paper argues against.
            viol = self.run_phase(viol, params.eps, shrink_active=True)
        elif heur.reconstruction == "single":
            viol = self.run_phase(viol, params.eps, shrink_active=heur.shrinks)
            if self.any_shrunk_global():
                viol = self.reconstruct()
                self.shrink_enabled = False
                self.delta_c = math.inf
                viol = self.run_phase(viol, params.eps, shrink_active=False)
        else:  # multi
            eps1 = params.eps * params.shrink_eps_factor
            viol = self.run_phase(viol, eps1, shrink_active=heur.shrinks)
            if self.any_shrunk_global():
                viol = self.reconstruct()
            # each reconstruction re-arms the shrink countdown with the
            # initial threshold (Alg. 5 keeps shrinking "as required";
            # re-arming is what lets the post-20ε phase — where the
            # bounds are tight — drive the active set below 10%, the
            # behaviour §V-D5 reports for real-sim)
            self.delta_c = min(self.delta_c, self._initial_threshold)
            while not viol.converged(params.eps):
                viol = self.run_phase(viol, params.eps, shrink_active=heur.shrinks)
                if self.any_shrunk_global():
                    viol = self.reconstruct()
                self.delta_c = min(self.delta_c, self._initial_threshold)

        if self._colcache is not None:
            self.trace.cache_hits = self._colcache.hits
            self.trace.cache_misses = self._colcache.misses
        beta = self._final_beta(viol)
        return RankResult(
            alpha=self.blk.alpha,
            gamma=self.blk.gamma,
            beta=beta,
            beta_up=viol.beta_up,
            beta_low=viol.beta_low,
            iterations=self.iterations,
            trace=self.trace,
            vtime=self.comm.vtime,
        )

    def _final_beta(self, viol: Violators) -> float:
        """β from the global mean of γ over I0 (§III)."""
        blk = self.blk
        free = free_mask(blk.alpha, self.C)
        local = np.array([blk.gamma[free].sum(), np.count_nonzero(free)])
        total, count = self.comm.allreduce(local, SUM)
        return beta_from_moments(total, count, viol.beta_up, viol.beta_low)


class _ResidentSample:
    """A working-set sample cached on every rank between iterations.

    Holds the broadcast payload plus the kernel column against this
    rank's active rows; ``epoch`` tags which compaction of the active
    set the column was computed for, so a shrink or reconstruction
    invalidates it without touching the cache.  ``alpha`` is refreshed
    on every rank from the redundantly computed pair update, so a cache
    hit needs no payload movement at all.
    """

    __slots__ = ("idx", "vals", "norm", "y", "alpha", "kcol", "epoch", "gidx")

    def __init__(self, idx, vals, norm, y, alpha) -> None:
        self.idx = idx
        self.vals = vals
        self.norm = norm
        self.y = y
        self.alpha = alpha
        self.kcol = None
        self.epoch = -1
        self.gidx = NO_INDEX  # set by the fetch that registers the entry


@dataclass
class _PendingShrink:
    """A shrink whose δ Allreduce rides the next violator election."""

    mask: np.ndarray  # over the packed active arrays
    n_shrunk: int
    fire_iteration: int  # iteration number the countdown fired at


class PackedRankSolver(RankSolver):
    """The overhauled per-iteration engine (ISSUE 4 tentpole).

    Produces bitwise-identical (α, β, iteration sequence, kernel-eval
    counts) to :class:`RankSolver` while replacing the three per-
    iteration costs:

    - **Fused election**: one typed :data:`MINLOC_MAXLOC` Allreduce
      carries (β_up, i_up, β_low, i_low) — and, when a shrink countdown
      has fired, the surviving-active-count SUM in a fifth slot —
      instead of two pickled Allreduces plus a separate shrink SUM.
      The fused array op applies the same value-then-lowest-index
      comparisons over the same combine tree, so the elected pair is
      identical; the shrink elimination is deferred one half-step (to
      the election that carries its δ), which changes no elected
      winner because the masked-out candidates are exactly the samples
      the legacy engine had already eliminated by then.
    - **Compacted state**: α/y/γ/C/norms and the active CSR rows live
      in packed arrays (:class:`CompactActiveSet`), rebuilt only at
      shrink/reconstruction events — no ``flatnonzero`` and no
      fancy-index gathers per iteration.
    - **Owner-rooted pair movement**: each working-set sample is
      broadcast from its owning rank (no rank-0 relay), and a
      resident-pair cache skips the broadcast and reuses the kernel
      column when i_up/i_low repeats within one compaction epoch.
      Kernel-eval *accounting* stays the canonical 2·n_active + 3 per
      iteration even on a column-cache hit — the reuse is host-time
      memoization of a bitwise-identical recomputation, and keeping
      the charge preserves eval-count equality with the legacy engine.
    """

    def __init__(
        self,
        comm: Comm,
        blk: LocalBlock,
        part: BlockPartition,
        params: SVMParams,
        heuristic: Heuristic,
        *,
        wss="mvp",
        cache_bytes: int = 0,
        warm_seeded: bool = False,
    ) -> None:
        super().__init__(
            comm, blk, part, params, heuristic,
            wss=wss, cache_bytes=cache_bytes, warm_seeded=warm_seeded,
        )
        self.compact = CompactActiveSet(blk, self.C)
        self._resident: dict = {}
        self._pending: "_PendingShrink | None" = None

    # ------------------------------------------------------------------
    # fused election
    # ------------------------------------------------------------------
    def _election_buffer(self, up, low, tail) -> np.ndarray:
        cs = self.compact
        bu, ku, bl, kl = local_extrema(
            cs.gamma, up, low, 0,
            rank=self.comm.rank, local_indices=cs.lidx,
        )
        gi_up = float(cs.gidx[ku]) if ku != NO_INDEX else float(NO_INDEX)
        gi_low = float(cs.gidx[kl]) if kl != NO_INDEX else float(NO_INDEX)
        slots = [bu, gi_up, bl, gi_low]
        if tail is not None:
            slots.append(tail)
        return np.array(slots, dtype=np.float64)

    def _select_mvp(self) -> Violators:
        """One fused typed Allreduce elects the pair (and settles a
        pending shrink's δ when one rode along)."""
        cs, comm = self.compact, self.comm
        pending = self._pending
        up, low = up_low_masks(cs.alpha, cs.y, cs.C)
        if pending is not None:
            # candidates the deferred shrink will eliminate must not
            # win this election — the legacy engine eliminated them
            # before electing
            if pending.n_shrunk:
                keep = ~pending.mask
                up &= keep
                low &= keep
            tail = float(cs.n_active - pending.n_shrunk)
        else:
            tail = None
        comm.advance(comm.machine.time_flops(8.0 * cs.n_active))
        out = comm.allreduce_buffer(
            self._election_buffer(up, low, tail), MINLOC_MAXLOC
        )
        if pending is not None:
            out = self._resolve_shrink(pending, int(out[4]), out)
        return Violators(
            beta_up=float(out[0]), i_up=int(out[1]), gamma_up=float(out[0]),
            beta_low=float(out[2]), i_low=int(out[3]), gamma_low=float(out[2]),
        )

    def _select_second_order(self) -> Violators:
        """Two-phase WSS2 election on the packed engine.

        Phase A is the unchanged fused MINLOC_MAXLOC allreduce —
        including the pending-shrink δ tail and candidate exclusions —
        so shrink semantics are identical to ``mvp``.  Phase B fetches
        the elected up sample (owner-rooted broadcast, resident-cache
        aware), scores the local low candidates by b²/a against its
        kernel column, and combines (gain, global index, γ_j) with one
        typed MAXLOC_PAYLOAD allreduce.  β_low from phase A remains the
        convergence bound (libsvm's WSS2 stopping rule).
        """
        cs, comm = self.compact, self.comm
        pending = self._pending
        up, low = up_low_masks(cs.alpha, cs.y, cs.C)
        if pending is not None:
            if pending.n_shrunk:
                keep = ~pending.mask
                up &= keep
                low &= keep
            tail = float(cs.n_active - pending.n_shrunk)
        else:
            tail = None
        comm.advance(comm.machine.time_flops(8.0 * cs.n_active))
        out = comm.allreduce_buffer(
            self._election_buffer(up, low, tail), MINLOC_MAXLOC
        )
        if pending is not None:
            out = self._resolve_shrink(pending, int(out[4]), out)
            # the shrink (or its veto) may have recompacted the arrays;
            # phase B scores over the post-resolution candidate set
            up, low = up_low_masks(cs.alpha, cs.y, cs.C)
        beta_up, i_up = float(out[0]), int(out[1])
        beta_low, i_low1 = float(out[2]), int(out[3])
        first = Violators(
            beta_up=beta_up, i_up=i_up, gamma_up=beta_up,
            beta_low=beta_low, i_low=i_low1, gamma_low=beta_low,
        )
        self._reuse_run = 0
        if (
            i_up == NO_INDEX
            or i_low1 == NO_INDEX
            or first.converged(self._phase_eps)
        ):
            return first
        ent_up = self._fetch_sample(i_up)
        k_uu = self.kernel.self_value(ent_up.norm)
        kcol_up = self._column_packed(ent_up)
        diag = self._diag(cs.norms)
        comm.advance(comm.machine.time_flops(12.0 * cs.n_active))
        gain, j, gamma_j = second_order_best(
            cs.gamma, low, kcol_up, diag, k_uu, beta_up, cs.gidx
        )
        out2 = comm.allreduce_buffer(
            np.array([gain, float(j), gamma_j], dtype=np.float64),
            MAXLOC_PAYLOAD,
        )
        self.trace.wss_elections += 1
        if int(out2[1]) == NO_INDEX:
            return first
        self._last_gain = float(out2[0])
        return Violators(
            beta_up=beta_up, i_up=i_up, gamma_up=beta_up,
            beta_low=beta_low, i_low=int(out2[1]), gamma_low=float(out2[2]),
        )

    def _resolve_shrink(
        self, pending: _PendingShrink, delta: int, out: np.ndarray
    ) -> np.ndarray:
        """Apply (or veto) the deferred elimination now that δ is known."""
        self._pending = None
        cs, blk = self.compact, self.blk
        self.trace.shrink_iters.append(pending.fire_iteration)
        if delta == 0:
            # over-eager global shrink-to-empty: keep the active set,
            # re-arm, and redo the election without the exclusions
            # (the fused winners above were elected over the wrong
            # candidate set; this second Allreduce is the rare path)
            self.trace.shrunk_per_event.append(0)
            self.delta_c = max(1.0, self._initial_threshold)
            up, low = up_low_masks(cs.alpha, cs.y, cs.C)
            self.comm.advance(
                self.comm.machine.time_flops(8.0 * cs.n_active)
            )
            return self.comm.allreduce_buffer(
                self._election_buffer(up, low, None), MINLOC_MAXLOC
            )
        self.trace.shrunk_per_event.append(pending.n_shrunk)
        if pending.n_shrunk:
            cs.flush()
            blk.active[cs.lidx[pending.mask]] = False
            blk.invalidate_active()
            cs.rebuild()
        # collective (delta != 0 on every rank, the fire event is a
        # shared countdown): the reuse plan and column cache must drop
        # on all ranks together or the reuse decision — and with it the
        # communication pattern — would diverge
        self._bump_epoch()
        if self.heur.subsequent == "active_set":
            self.delta_c = max(1.0, float(delta))
        else:
            self.delta_c = max(1.0, self._initial_threshold)
        return out

    # ------------------------------------------------------------------
    # owner-rooted pair movement
    # ------------------------------------------------------------------
    def _fetch_sample(self, gidx: int) -> _ResidentSample:
        ent = self._resident.get(gidx)
        if ent is not None:
            return ent
        comm, blk, cs = self.comm, self.blk, self.compact
        owner = self.part.owner(gidx)
        payload = None
        if comm.rank == owner:
            pay = blk.sample_payload(blk.to_local(gidx), copy=False)
            # blk.alpha is stale between flushes — α lives in the
            # packed array while the sample is active
            payload = pay[:4] + (
                float(cs.alpha[cs.position_of_global(gidx)]),
            )
        payload = comm.bcast(payload, root=owner)
        self.trace.pair_broadcasts += 1
        ent = _ResidentSample(*payload)
        ent.gidx = gidx  # column-cache key (provider path)
        self._resident[gidx] = ent
        return ent

    def fetch_pair(self, viol: Violators):
        """Broadcast each sample from its owner; resident samples are
        free.

        The cache is coherent without invalidation: a sample's row, y
        and norm never change, and its α changes only while it is *in*
        the working set — at which moment every rank recomputes the
        update redundantly and refreshes the entry.  Every rank runs
        the same broadcast sequence, so the cache contents are
        identical everywhere and the hit/miss decision needs no
        coordination.
        """
        return self._fetch_sample(viol.i_up), self._fetch_sample(viol.i_low)

    def _kernel_columns(
        self, ent_up: _ResidentSample, ent_low: _ResidentSample
    ) -> tuple:
        """Φ(sample, active rows) for both pair samples, memoized per
        compaction epoch.

        Uncached columns are produced by one blocked call (both at
        once on a full miss).  Bitwise identical to the legacy 2-column
        call however the batch splits: column j of ``kernel.block``
        equals the single-column product (see
        :meth:`CSRMatrix.dot_csr_t`), and the kernel maps are pure
        elementwise expressions.
        """
        cs = self.compact
        if self._colcache is not None:
            # provider path: each column is served/produced through the
            # byte-budgeted cache and charged only on actual production
            return self._column_packed(ent_up), self._column_packed(ent_low)
        need = [
            e
            for e in (ent_up, ent_low)
            if e.kcol is None or e.epoch != cs.epoch
        ]
        if need:
            rows = CSRMatrix.from_rows(
                [(e.idx, e.vals) for e in need], self.blk.X.shape[1]
            )
            cols = self.kernel.block(
                cs.Xa, cs.norms, rows, np.array([e.norm for e in need])
            )
            for j, e in enumerate(need):
                e.kcol = cols[:, j]
                e.epoch = cs.epoch
        return ent_up.kcol, ent_low.kcol

    def _column_packed(self, ent: _ResidentSample) -> np.ndarray:
        """Φ(sample, packed active rows) through the per-rank column
        cache; production (a miss) charges the actual evaluations."""
        cache = self._colcache
        col = cache.get(ent.gidx)
        if col is None:
            cs = self.compact
            rows = CSRMatrix.from_rows(
                [(ent.idx, ent.vals)], self.blk.X.shape[1]
            )
            col = self.kernel.block(
                cs.Xa, cs.norms, rows, np.array([ent.norm])
            )[:, 0]
            cache.put(ent.gidx, col)
            n = int(cs.n_active)
            self.trace.kernel_evals += n
            self.trace.iter_kernel_evals += n
            self.comm.charge_kernel_evals(n, self.avg_nnz)
        return col

    # ------------------------------------------------------------------
    # the packed iteration
    # ------------------------------------------------------------------
    def iterate_once(self, viol: Violators, shrink_active: bool) -> None:
        comm, cs, kernel = self.comm, self.compact, self.kernel
        ent_up, ent_low = self.fetch_pair(viol)
        yu, au = ent_up.y, ent_up.alpha
        yl, al = ent_low.y, ent_low.alpha

        k_uu = kernel.self_value(ent_up.norm)
        k_ll = kernel.self_value(ent_low.norm)
        k_ul = kernel.pair(
            (ent_up.idx, ent_up.vals, ent_up.norm),
            (ent_low.idx, ent_low.vals, ent_low.norm),
        )
        new_up, new_low = solve_pair(
            k_uu, k_ll, k_ul, yu, yl, au, al,
            viol.gamma_up, viol.gamma_low,
            self.params.box_for(yu), self.params.box_for(yl),
        )
        d_up = new_up - au
        d_low = new_low - al

        k_up_col, k_low_col = self._kernel_columns(ent_up, ent_low)
        apply_pair_update(cs.gamma, k_up_col, k_low_col, yu, yl, d_up, d_low)
        if self.blk.owns_global(viol.i_up):
            cs.alpha[cs.position_of_global(viol.i_up)] = new_up
        if self.blk.owns_global(viol.i_low):
            cs.alpha[cs.position_of_global(viol.i_low)] = new_low
        # every rank computed the update redundantly — keep the cached
        # payloads current so a repeat election moves no bytes
        ent_up.alpha = new_up
        ent_low.alpha = new_low
        if self.wss.reuse_eta is not None:
            self._observe_pair(
                viol,
                (ent_up.idx, ent_up.vals, ent_up.norm),
                (ent_low.idx, ent_low.vals, ent_low.norm),
                yu, yl, new_up, new_low, k_uu, k_ll, k_ul, d_up, d_low,
            )

        if self._colcache is None:
            evals = 2 * cs.n_active + 3
        else:
            # provider accounting: columns charged on production inside
            # _column_packed, only the 3 pair evaluations land here
            evals = 3
        self.trace.kernel_evals += evals
        self.trace.iter_kernel_evals += evals
        comm.charge_kernel_evals(evals, self.avg_nnz)

        if shrink_active:
            self.delta_c -= 1
            if self.delta_c <= 0:
                mask = shrinkable_mask(
                    cs.alpha, cs.y, cs.gamma, cs.C,
                    viol.beta_up, viol.beta_low,
                )
                self._pending = _PendingShrink(
                    mask=mask,
                    n_shrunk=int(np.count_nonzero(mask)),
                    fire_iteration=self.iterations,
                )

        self.trace.record_iteration(cs.n_active)
        if comm.rank == 0:
            self.trace.gap_history.append(viol.gap())
        self.iterations += 1
        if self.params.max_iter and self.iterations > self.params.max_iter:
            raise ConvergenceError(
                f"parallel SMO exceeded max_iter={self.params.max_iter} "
                f"(gap {viol.gap():.3e})"
            )

    # ------------------------------------------------------------------
    # event boundaries: flush packed state back into the block
    # ------------------------------------------------------------------
    def reconstruct(self) -> Violators:
        assert self._pending is None, "shrink unresolved at reconstruction"
        self.compact.flush()
        gradient_reconstruction(
            self.comm, self.blk, self.kernel, self.iterations, self.trace
        )
        self.compact.rebuild()
        self._bump_epoch()
        self._last_gain = math.inf
        return self.select()

    def _final_beta(self, viol: Violators) -> float:
        assert self._pending is None, "shrink unresolved at finalization"
        self.compact.flush()
        return super()._final_beta(viol)


#: engine registry — "packed" is the default; "legacy" keeps the
#: original relay-and-two-Allreduce path alive for A/B equivalence
#: tests and the before/after benchmark
ENGINES = {"packed": PackedRankSolver, "legacy": RankSolver}


def solve_rank(
    comm: Comm,
    blk: LocalBlock,
    part: BlockPartition,
    params: SVMParams,
    heuristic: Heuristic,
    engine: str = "packed",
    *,
    wss: str = "mvp",
    cache_bytes: int = 0,
    warm_seeded: bool = False,
) -> RankResult:
    """Entry point executed by :func:`repro.mpi.run_spmd` on each rank."""
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {sorted(ENGINES)}"
        ) from None
    return cls(
        comm, blk, part, params, heuristic, wss=wss, cache_bytes=cache_bytes,
        warm_seeded=warm_seeded,
    ).solve()
