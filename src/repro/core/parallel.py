"""The distributed SMO engine — Algorithms 2, 4 and 5.

One :class:`PackedRankSolver` runs per simulated MPI rank.  The engine
is a single iteration loop parameterized by the shrinking heuristic:

- ``original`` (Algorithm 2): shrinking never fires;
- ``single*`` (Algorithm 4): shrink until the active problem converges
  at 2ε, reconstruct gradients once, disable shrinking, finish exactly;
- ``multi*`` (Algorithm 5): converge the shrunk problem at 20ε,
  reconstruct, then repeat [converge at 2ε → reconstruct] until a
  reconstruction certifies global optimality.

Every iteration performs, per the paper:

1. each of the two working-set samples is broadcast from the rank that
   owns it (Algorithm 2 lines 3-9); a sample already resident on every
   rank from an earlier election moves no bytes;
2. the analytic α pair update, redundantly on every rank (3 kernel
   evaluations, Eq. 6-7);
3. the γ update over the rank's *active* samples, held in packed
   arrays (2 kernel-row evaluations, Eq. 2);
4. when the shrink countdown δ_c fires, the Eq. (9) elimination mask;
   the elimination itself waits for the next election, whose Allreduce
   also sums the surviving global active-set size that sets the next
   threshold (§IV-A2);
5. one fused typed Allreduce (MINLOC_MAXLOC over
   [β_up, i_up, β_low, i_low]) electing the next worst violators
   (Eq. 3).

Determinism: value ties in the violator election break toward the
smallest global index, so the iteration sequence — and therefore the
returned model — is bitwise identical for every process count.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..kernels import Kernel
from ..mpi.communicator import Comm
from ..mpi.reduceops import MAXLOC_PAYLOAD, MINLOC_MAXLOC, SUM
from ..sparse.csr import CSRMatrix
from ..sparse.partition import BlockPartition
from .gradient import apply_pair_update
from .params import ConvergenceError, SVMParams
from .reconstruction import gradient_reconstruction
from .sets import free_mask, shrinkable_mask
from .shrinking import Heuristic
from .state import CompactActiveSet, LocalBlock
from .trace import RankTrace
from .wss import (
    NO_INDEX,
    Violators,
    beta_from_moments,
    masked_extrema,
    solve_pair,
)
from .wss_policies import (
    MAX_CONSECUTIVE_REUSES,
    PoolSample,
    ReusePool,
    get_wss_policy,
    second_order_best,
)

#: distinct (i_up, i_low) pair kernels a solve memoizes before it
#: clears the memo (a float per pair, ≈0.5 MB per rank at the bound)
PAIR_MEMO_MAX = 4096


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


class _ResidentSample:
    """A working-set sample cached on every rank between iterations.

    Holds the broadcast payload, its self kernel Φ(x, x) and the kernel
    column against this rank's active rows; ``epoch`` tags which
    compaction of the active set the column matches.  A shrink only
    removes rows, so it compacts the column and re-tags it; a
    reconstruction grows the active set and releases it, and so does an
    eviction under a column budget.  ``alpha`` is refreshed on every
    rank from the redundantly computed pair update, so a cache hit needs
    no payload movement at all.
    """

    __slots__ = (
        "idx", "vals", "norm", "y", "alpha", "kcol", "epoch", "gidx",
        "k_self",
    )

    def __init__(self, idx, vals, norm, y, alpha) -> None:
        self.idx = idx
        self.vals = vals
        self.norm = norm
        self.y = y
        self.alpha = alpha
        self.kcol = None
        self.epoch = -1
        # set by the fetch that registers the entry (the column store's
        # LRU key under a byte budget)
        self.gidx = NO_INDEX
        self.k_self = 0.0


@dataclass
class _PendingShrink:
    """A shrink whose δ Allreduce rides the next violator election."""

    mask: np.ndarray  # over the packed active arrays
    n_shrunk: int
    fire_iteration: int  # iteration number the countdown fired at


class PackedRankSolver:
    """Per-rank solver state machine.

    Three choices keep the per-iteration cost at the O(|A|/p) γ update
    plus one small Allreduce:

    - **Fused election**: one typed :data:`MINLOC_MAXLOC` Allreduce
      carries (β_up, i_up, β_low, i_low) — and, when a shrink countdown
      has fired, the surviving-active-count SUM in a fifth slot — so a
      shrink event sends no δ Allreduce of its own.  The elimination is
      deferred one half-step, to the election that carries its δ; that
      election already excludes the samples the shrink will eliminate,
      so it elects the pair an immediate elimination would have.
    - **Compacted state**: α/y/γ/C/norms, the up/low election masks
      and the active CSR rows live in packed arrays
      (:class:`CompactActiveSet`), rebuilt only at shrink/reconstruction
      events.  An iteration refreshes the mask bits of the (at most two)
      α it writes and elects by one masked argmin/argmax per side — no
      ``flatnonzero``, no fancy-index gathers and no mask rescan per
      iteration; sample lookups are O(1).
    - **Owner-rooted pair movement**: each working-set sample is
      broadcast from its owning rank, and a resident-pair cache skips
      the broadcast and reuses the kernel column when i_up/i_low
      repeats.  A resident column survives a shrink (compacted to the
      surviving rows) and is released at a reconstruction; the pair
      kernel K(x_up, x_low) is memoized per ordered pair (at most
      :data:`PAIR_MEMO_MAX` of them).  Without a column budget the
      kernel-eval *accounting* stays the canonical 2·n_active + 3 per
      iteration even on a hit — the reuse is host-time memoization of
      a bitwise-identical recomputation, not saved algorithmic work.
      With a budget (``cache_bytes``) the same store is a byte-bounded
      LRU, and each column it produces is charged instead.
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
        self.wss = get_wss_policy(wss)
        #: per-rank byte budget of the column store (0 = unbounded, with
        #: Algorithm 2's per-iteration accounting; see :meth:`_columns`)
        self._budget = int(cache_bytes)
        #: under a budget, the entries holding a column, least recently
        #: used first, and the bytes of those columns
        self._lru: "OrderedDict[int, _ResidentSample]" = OrderedDict()
        self._held_bytes = 0
        self._phase_eps = params.eps  # eps of the phase currently running
        self._epoch = 0  # active-set epoch (bumped on shrink/reconstruct)
        self._diag_memo: "tuple | None" = None
        # planning-ahead reuse pool (tracked recent working-set samples)
        self._pool = (
            ReusePool(self.kernel)
            if self.wss.reuse_eta is not None
            else None
        )
        self._last_gain = math.inf  # gain of the last elected pair
        self._reuse_run = 0  # consecutive reuses since the last election
        self.compact = CompactActiveSet(blk, self.C)
        self._resident: dict = {}
        #: K(x_up, x_low) per ordered pair (i_up, i_low): rows are
        #: immutable, so an entry never goes stale
        self._pair_memo: dict = {}
        self._pending: "_PendingShrink | None" = None
        # the two per-class boxes, once per solve: box_for turns a
        # scalar label into its box with numpy, twice per iteration
        self._box_pos = params.box_for(1.0)
        self._box_neg = params.box_for(-1.0)
        # read once per solve: none of these changes while it runs
        self._reuse = self.wss.reuse_eta is not None
        self._max_iter = params.max_iter
        self._rank0 = comm.rank == 0
        self._price_epoch()

    def _box_of(self, y: float) -> float:
        """``params.box_for(y)`` for a scalar label."""
        return self._box_pos if y > 0 else self._box_neg

    def _price_epoch(self) -> None:
        """Price what depends only on the active set: the election scan
        (8 flops a row), phase B's scoring (12 a row) and an iteration's
        kernel evals (Algorithm 2's 2·|A|+3; 3 under a column budget,
        whose columns :meth:`_columns` charges as it produces them).

        Runs once per compaction: here at construction, after the
        first one, and in :meth:`_bump_epoch`, which follows every
        later rebuild.  Each value is the float expression a per-call
        charge would compute, so charging it bumps every clock and
        statistic bucket by the same bits.
        """
        machine = self.comm.machine
        n = self.compact.n_active
        self._n_act = n
        self._elect_s = machine.time_flops(8.0 * n)
        self._phase_b_s = machine.time_flops(12.0 * n)
        self._iter_evals = 3 if self._budget else 2 * n + 3
        self._iter_evals_s = self._eval_seconds(self._iter_evals)

    # ------------------------------------------------------------------
    # election
    # ------------------------------------------------------------------
    def select(self) -> Violators:
        """Elect the next working pair under the configured WSS policy.

        ``mvp`` runs the first-order election; the second-order
        policies run the two-phase election, and ``planning_ahead``
        first tries a zero-communication reuse of the previous pair.
        """
        if self._reuse:
            viol = self._take_reuse()
            if viol is not None:
                return viol
        if self.wss.second_order:
            return self._select_second_order()
        return self._select_mvp()

    def _candidates(self):
        """``(up, low, tail)`` for the next election.

        The maintained masks, narrowed by a pending shrink — candidates
        the deferred shrink will eliminate must not win this election —
        into new arrays, so the maintained masks never change.  ``tail``
        is the pending shrink's surviving-active count (``None`` without
        one).
        """
        cs, pending = self.compact, self._pending
        if pending is None:
            return cs.up, cs.low, None
        up, low = cs.up, cs.low
        if pending.n_shrunk:
            keep = ~pending.mask
            up, low = up & keep, low & keep
        return up, low, float(cs.n_active - pending.n_shrunk)

    def _election_buffer(self, up, low, tail) -> np.ndarray:
        cs = self.compact
        bu, ku, bl, kl = masked_extrema(
            cs.gamma, up, low, rank=self.comm.rank, local_indices=cs.lidx
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
        comm = self.comm
        pending = self._pending
        up, low, tail = self._candidates()
        comm.advance(self._elect_s)
        out = comm.allreduce_buffer(
            self._election_buffer(up, low, tail), MINLOC_MAXLOC
        )
        if pending is not None:
            out = self._resolve_shrink(pending, int(out[4]), out)
        beta_up, i_up, beta_low, i_low = out[:4].tolist()
        return Violators(
            beta_up=beta_up, i_up=int(i_up), gamma_up=beta_up,
            beta_low=beta_low, i_low=int(i_low), gamma_low=beta_low,
        )

    def _select_second_order(self) -> Violators:
        """Two-phase WSS2 election.

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
        up, low, tail = self._candidates()
        comm.advance(self._elect_s)
        out = comm.allreduce_buffer(
            self._election_buffer(up, low, tail), MINLOC_MAXLOC
        )
        if pending is not None:
            out = self._resolve_shrink(pending, int(out[4]), out)
            # the shrink (or its veto) may have recompacted the arrays;
            # phase B scores over the post-resolution candidate set
            low = cs.low
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
        (kcol_up,) = self._columns(ent_up)
        diag = self._diag(cs.norms)
        comm.advance(self._phase_b_s)
        gain, j, gamma_j = second_order_best(
            cs.gamma, low, kcol_up, diag, ent_up.k_self, beta_up, cs.gidx
        )
        out2 = comm.allreduce_buffer(
            np.array([gain, float(j), gamma_j], dtype=np.float64),
            MAXLOC_PAYLOAD,
        )
        self.trace.wss_elections += 1
        if int(out2[1]) == NO_INDEX:
            # unreachable while phase A reports a violator (that sample
            # itself has positive b) — kept as a safe first-order step
            return first
        self._last_gain = float(out2[0])
        return Violators(
            beta_up=beta_up, i_up=i_up, gamma_up=beta_up,
            beta_low=beta_low, i_low=int(out2[1]), gamma_low=float(out2[2]),
        )

    def _resolve_shrink(
        self, pending: _PendingShrink, delta: int, out: np.ndarray
    ) -> np.ndarray:
        """Apply (or veto) the deferred elimination now that δ is known.

        The δ guard: when an over-eager threshold would shrink the
        *global* active set to empty, every rank sees ``delta == 0`` and
        skips the elimination.  Without the guard the empty active
        problem is trivially "converged", the solver reconstructs, the
        bounds have not moved, and the shrink fires again — a
        reconstruction loop that re-evaluates Θ(n·|α>0|) kernels per
        lap without progressing.
        """
        self._pending = None
        cs, blk = self.compact, self.blk
        self.trace.shrink_iters.append(pending.fire_iteration)
        if delta == 0:
            # keep the active set, re-arm, and redo the election without
            # the exclusions (the fused winners above were elected over
            # the wrong candidate set; this second Allreduce is the rare
            # path)
            self.trace.shrunk_per_event.append(0)
            self.delta_c = max(1.0, self._initial_threshold)
            self.comm.advance(self._elect_s)
            return self.comm.allreduce_buffer(
                self._election_buffer(cs.up, cs.low, None), MINLOC_MAXLOC
            )
        self.trace.shrunk_per_event.append(pending.n_shrunk)
        if pending.n_shrunk:
            cs.flush()
            blk.active[cs.lidx[pending.mask]] = False
            ending = cs.epoch
            cs.rebuild()
            self._carry_columns(ending, ~pending.mask)
        # collective (delta != 0 on every rank, the fire event is a
        # shared countdown): the reuse plan must drop on all ranks
        # together or the reuse decision — and with it the
        # communication pattern — would diverge
        self._bump_epoch()
        if self.heur.subsequent == "active_set":
            self.delta_c = max(1.0, float(delta))
        else:
            self.delta_c = max(1.0, self._initial_threshold)
        return out

    # ------------------------------------------------------------------
    # planning-ahead reuse
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
        if self._pending is not None:
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
            self._charge_evals(n, self._eval_seconds(n))

    def _eval_seconds(self, n: int) -> float:
        """Modeled time of ``n`` kernel evaluations of the active rows."""
        return self.comm.machine.time_kernel_evals(n, self.avg_nnz)

    def _charge_evals(self, n: int, seconds: float) -> None:
        """Book ``n`` kernel evaluations of the iteration loop, priced
        at ``seconds`` (:meth:`_eval_seconds`)."""
        trace = self.trace
        trace.kernel_evals += n
        trace.iter_kernel_evals += n
        self.comm.advance(seconds)

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
                C=self._box_of(yu), alpha=new_up, gamma=g_u,
            ),
            PoolSample(
                gidx=viol.i_low, row=row_low, y=yl,
                C=self._box_of(yl), alpha=new_low, gamma=g_l,
            ),
            coef_up, coef_low,
        )
        self._charge_pool_evals()

    # ------------------------------------------------------------------
    # owner-rooted pair movement and kernel columns
    # ------------------------------------------------------------------
    def _fetch_sample(self, gidx: int) -> _ResidentSample:
        ent = self._resident.get(gidx)
        if ent is not None:
            return ent
        comm, blk, cs = self.comm, self.blk, self.compact
        owner = self.part.owner(gidx)
        payload = None
        if comm.rank == owner:
            pay = blk.sample_payload(blk.to_local(gidx))
            # blk.alpha is stale between flushes — α lives in the
            # packed array while the sample is active
            payload = pay[:4] + (
                float(cs.alpha[cs.position_of_global(gidx)]),
            )
        payload = comm.bcast(payload, root=owner)
        self.trace.pair_broadcasts += 1
        ent = _ResidentSample(*payload)
        ent.gidx = gidx
        ent.k_self = self.kernel.self_value(ent.norm)
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

    def _columns(self, *ents: _ResidentSample) -> list:
        """Φ(sample, active rows) for each of ``ents``, held on the
        resident entries until a reconstruction (a shrink compacts them,
        :meth:`_carry_columns`).

        The missing columns are produced by one blocked call.  Bitwise
        identical however the batch splits: column j of
        ``kernel.block`` equals the single-column product (see
        :meth:`CSRMatrix.dot_csr_t`), and the kernel maps are pure
        elementwise expressions.

        Without a budget the store is unbounded and charges nothing
        here: :meth:`iterate_once` charges Algorithm 2's 2·|A|+3, as if
        every column were recomputed.  With one, it is an LRU of at most
        ``cache_bytes`` column bytes — producing first evicts the least
        recently used columns this request does not use — and each
        produced column charges |A|; the request's hits and misses are
        counted.
        """
        cs = self.compact
        need = [e for e in ents if e.kcol is None or e.epoch != cs.epoch]
        budget = self._budget
        if budget:
            for e in ents:
                if e.gidx in self._lru:
                    self._lru.move_to_end(e.gidx)
            self.trace.cache_hits += len(ents) - len(need)
            self.trace.cache_misses += len(need)
            self._evict([e.gidx for e in ents], 8 * cs.n_active * len(need))
        if need:
            rows = CSRMatrix.from_rows(
                [(e.idx, e.vals) for e in need], self.blk.X.shape[1],
                check=False,
            )
            cols = self.kernel.block(
                cs.Xa, cs.norms, rows, np.array([e.norm for e in need])
            )
            for j, e in enumerate(need):
                # a budgeted column owns its bytes: evicting its
                # neighbour must not leave the shared slab pinned
                e.kcol = cols[:, j].copy() if budget else cols[:, j]
                e.epoch = cs.epoch
            self.trace.columns_produced += len(need)
            if budget:
                for e in need:
                    self._lru[e.gidx] = e
                    self._held_bytes += e.kcol.nbytes
                n = len(need) * int(cs.n_active)
                self._charge_evals(n, self._eval_seconds(n))
        return [e.kcol for e in ents]

    def _evict(self, request: list, nbytes: int) -> None:
        """Release least recently used columns until ``nbytes`` more fit
        the budget; the columns of ``request`` (moved to the MRU end
        before this call) are never released."""
        lru = self._lru
        while lru and self._held_bytes + nbytes > self._budget:
            gidx = next(iter(lru))
            if gidx in request:
                break  # only the request's own columns are left
            ent = lru.pop(gidx)
            self._held_bytes -= ent.kcol.nbytes
            ent.kcol, ent.epoch = None, -1

    def _carry_columns(self, ending: int, keep: np.ndarray) -> None:
        """Compact the resident columns of compaction ``ending`` to the
        rows a shrink kept, and tag them with the new compaction.

        Row i of a column depends only on active row i and the sample,
        and the rebuilt packed rows are the kept rows in the same order,
        so ``kcol[keep]`` is bitwise the column a fresh ``kernel.block``
        would produce.  The copy also releases the slab the column was
        a view of.
        """
        epoch = self.compact.epoch
        for ent in self._resident.values():
            if ent.epoch == ending:
                ent.kcol = ent.kcol[keep]
                ent.epoch = epoch
                self.trace.columns_carried += 1

    def _diag(self, norms_active) -> np.ndarray:
        """Φ(x_j, x_j) over the active rows, memoized per epoch (libsvm's
        QD vector); charged once per epoch like any produced column."""
        if self._diag_memo is not None and self._diag_memo[0] == self._epoch:
            return self._diag_memo[1]
        d = self.kernel.diag(norms_active)
        n = int(norms_active.shape[0])
        self._charge_evals(n, self._eval_seconds(n))
        self._diag_memo = (self._epoch, d)
        return d

    # ------------------------------------------------------------------
    # the iteration
    # ------------------------------------------------------------------
    def iterate_once(self, viol: Violators, shrink_active: bool) -> None:
        """One SMO step: α pair update, γ update, shrink countdown.

        What depends only on the active set is priced once per
        compaction (:meth:`_price_epoch`); an iteration pays for the
        pair, its two columns and the γ update.
        """
        cs, trace = self.compact, self.trace
        i_up, i_low = viol.i_up, viol.i_low
        ent_up, ent_low = self.fetch_pair(viol)
        yu, au = ent_up.y, ent_up.alpha
        yl, al = ent_low.y, ent_low.alpha

        k_uu, k_ll = ent_up.k_self, ent_low.k_self
        memo, key = self._pair_memo, (i_up, i_low)
        k_ul = memo.get(key)
        if k_ul is None:
            if len(memo) >= PAIR_MEMO_MAX:
                memo.clear()
            k_ul = memo[key] = self.kernel.pair(
                (ent_up.idx, ent_up.vals, ent_up.norm),
                (ent_low.idx, ent_low.vals, ent_low.norm),
            )
        else:
            trace.pair_memo_hits += 1
        new_up, new_low = solve_pair(
            k_uu, k_ll, k_ul, yu, yl, au, al,
            viol.gamma_up, viol.gamma_low,
            self._box_of(yu), self._box_of(yl),
        )
        d_up = new_up - au
        d_low = new_low - al

        epoch = cs.epoch
        if not self._budget and ent_up.epoch == epoch == ent_low.epoch:
            # both columns resident for this compaction (an entry's
            # epoch matches only while it holds its column)
            k_up_col, k_low_col = ent_up.kcol, ent_low.kcol
        else:
            k_up_col, k_low_col = self._columns(ent_up, ent_low)
        apply_pair_update(cs.gamma, k_up_col, k_low_col, yu, yl, d_up, d_low)
        blk = self.blk
        if blk.owns_global(i_up):
            cs.set_alpha(cs.position_of_global(i_up), new_up)
        if blk.owns_global(i_low):
            cs.set_alpha(cs.position_of_global(i_low), new_low)
        # every rank computed the update redundantly — keep the cached
        # payloads current so a repeat election moves no bytes
        ent_up.alpha = new_up
        ent_low.alpha = new_low
        if self._reuse:
            self._observe_pair(
                viol,
                (ent_up.idx, ent_up.vals, ent_up.norm),
                (ent_low.idx, ent_low.vals, ent_low.norm),
                yu, yl, new_up, new_low, k_uu, k_ll, k_ul, d_up, d_low,
            )

        # the iteration's kernel evals, priced for this compaction
        self._charge_evals(self._iter_evals, self._iter_evals_s)

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

        trace.active_counts.append(self._n_act)
        if self._rank0:
            trace.gap_history.append(viol.gap())
        self.iterations += 1
        if self._max_iter and self.iterations > self._max_iter:
            raise ConvergenceError(
                f"parallel SMO exceeded max_iter={self._max_iter} "
                f"(gap {viol.gap():.3e})"
            )

    # ------------------------------------------------------------------
    # event boundaries: flush packed state back into the block
    # ------------------------------------------------------------------
    def _bump_epoch(self) -> None:
        """The active set changed: diag, reuse plan and the per-epoch
        prices (:meth:`_price_epoch`) are stale, and so is every kernel
        column a shrink did not carry.

        Resident samples keep their payloads — rows/y are immutable and
        α is refreshed redundantly after every pair update — but release
        kernel columns of older compactions: each is a view pinning its
        whole 1–2-column slab, and every rank would otherwise end a fit
        holding one stale column per distinct working-set sample.
        """
        self._epoch += 1
        self._diag_memo = None
        if self._pool is not None:
            # a shrunk sample must not be re-elected; the pool refills
            # from post-event broadcasts, which are all active
            self._pool.clear()
        epoch = self.compact.epoch
        for ent in self._resident.values():
            if ent.epoch != epoch:
                ent.kcol = None
        if self._budget:
            # released columns leave the LRU; carried ones shrank
            self._lru = OrderedDict(
                (g, e) for g, e in self._lru.items() if e.kcol is not None
            )
            self._held_bytes = sum(e.kcol.nbytes for e in self._lru.values())
        self._price_epoch()

    def reconstruct(self) -> Violators:
        """Algorithm 3, then a fresh violator election over all samples."""
        assert self._pending is None, "shrink unresolved at reconstruction"
        self.compact.flush()
        gradient_reconstruction(
            self.comm, self.blk, self.kernel, self.iterations, self.trace
        )
        self.compact.rebuild()
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
        assert self._pending is None, "shrink unresolved at finalization"
        self.compact.flush()
        blk = self.blk
        free = free_mask(blk.alpha, self.C)
        local = np.array([blk.gamma[free].sum(), np.count_nonzero(free)])
        total, count = self.comm.allreduce(local, SUM)
        return beta_from_moments(total, count, viol.beta_up, viol.beta_low)


def solve_rank(
    comm: Comm,
    blk: LocalBlock,
    part: BlockPartition,
    params: SVMParams,
    heuristic: Heuristic,
    *,
    wss: str = "mvp",
    cache_bytes: int = 0,
    warm_seeded: bool = False,
) -> RankResult:
    """Entry point executed by :func:`repro.mpi.run_spmd` on each rank."""
    return PackedRankSolver(
        comm, blk, part, params, heuristic, wss=wss, cache_bytes=cache_bytes,
        warm_seeded=warm_seeded,
    ).solve()
