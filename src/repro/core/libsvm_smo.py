"""libsvm-style sequential solver — the paper's baseline (§V-A).

The paper compares against libsvm 3.18 enhanced with OpenMP, "allowing
libsvm to use a compute node's entire memory as a kernel cache".  This
module reimplements that baseline from scratch in the libsvm style:

- second-order working-set selection (Fan et al., WSS 2 — libsvm's
  default), unlike the distributed solver's first-order maximal
  violating pair;
- a byte-bounded LRU cache of full kernel rows
  (:class:`repro.kernels.KernelRowCache`);
- libsvm-flavoured shrinking: a shrink pass every ``min(N, 1000)``
  iterations, one gradient reconstruction ("unshrink") when the gap
  first drops within 10× of the final tolerance, and a reconstruction
  before optimality is certified.

Operation counters (kernel evaluations split by cache hit/miss,
iterations) feed :mod:`repro.perfmodel.baseline`, which models the
single-core ("libsvm-sequential") and 16-core OpenMP
("libsvm-enhanced") execution times on the target machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..kernels import KernelRowCache
from ..sparse.csr import CSRMatrix
from .params import ConvergenceError, SVMParams
from .sets import free_mask, low_mask, shrinkable_mask, up_mask
from .wss import TAU, compute_beta, solve_pair


@dataclass
class LibsvmResult:
    """Converged baseline state + operation counters."""

    alpha: np.ndarray
    gamma: np.ndarray
    beta: float
    iterations: int
    kernel_evals: int  # actual evaluations (cache misses, by element)
    kernel_requests: int  # evaluations that would happen without a cache
    cache_stats: dict
    shrink_passes: int
    reconstructions: int
    gap: float

    @property
    def n_sv(self) -> int:
        return int(np.count_nonzero(self.alpha > 0))

    @property
    def cache_hit_rate(self) -> float:
        if self.kernel_requests == 0:
            return 0.0
        return 1.0 - self.kernel_evals / self.kernel_requests


#: cache-miss rows produced per blocked batch — bounds the slab at
#: ROW_BATCH × N doubles during gradient reconstruction
ROW_BATCH = 64


class _RowProvider:
    """Kernel rows on demand through the LRU cache."""

    def __init__(self, X: CSRMatrix, norms: np.ndarray, kernel, cache_bytes: int):
        self.X = X
        self.norms = norms
        self.kernel = kernel
        self.cache = KernelRowCache(cache_bytes)
        self.evals = 0
        self.requests = 0

    def row(self, i: int) -> np.ndarray:
        n = self.X.shape[0]
        self.requests += n
        cached = self.cache.get(i)
        if cached is not None:
            return cached
        xi, xv = self.X.row(i)
        row = self.kernel.row_against_block(
            self.X, self.norms, xi, xv, float(self.norms[i])
        )
        self.evals += n
        self.cache.put(i, row)
        return row

    def rows(self, idxs, *, batch: int = ROW_BATCH):
        """Yield the kernel rows for ``idxs`` in order, producing cache
        misses in blocked batches.

        ``simulate_misses`` predicts exactly which requests will miss, so
        all misses of a batch are evaluated as one ``Kernel.block`` slab,
        then the get/put sequence of repeated :meth:`row` calls is
        replayed verbatim — rows, hit/miss/eviction counters and the
        cache's eventual state are all identical to the row-at-a-time
        path.
        """
        n = self.X.shape[0]
        idxs = [int(i) for i in idxs]
        for lo in range(0, len(idxs), batch):
            chunk = idxs[lo : lo + batch]
            miss = self.cache.simulate_misses(chunk, n * 8)
            fresh = {}
            if miss:
                miss_arr = np.asarray(miss, dtype=np.int64)
                slab = self.kernel.block(
                    self.X,
                    self.norms,
                    self.X.take_rows(miss_arr),
                    self.norms[miss_arr],
                )
                for k, i in enumerate(miss):
                    fresh[i] = np.ascontiguousarray(slab[:, k])
            for i in chunk:
                self.requests += n
                cached = self.cache.get(i)
                if cached is not None:
                    yield cached
                    continue
                row = fresh[i]
                self.evals += n
                self.cache.put(i, row)
                yield row


def solve_libsvm_style(
    X: CSRMatrix,
    y: np.ndarray,
    params: SVMParams,
    *,
    cache_bytes: Optional[int] = None,
    shrinking: bool = True,
    second_order: bool = True,
) -> LibsvmResult:
    """Train in the libsvm style; see module docstring."""
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if y.shape != (n,):
        raise ValueError(f"{y.size} labels for {n} samples")
    if n == 0:
        raise ValueError("empty training set")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1/-1")
    kernel, eps = params.kernel, params.eps
    C = params.box_for(y)  # per-sample box

    norms = X.row_norms_sq()
    diag = kernel.diag(norms)
    # default cache: 1 GiB — "a compute node's entire memory" scaled to
    # the reproduction's problem sizes (callers override for ablations)
    provider = _RowProvider(
        X, norms, kernel, cache_bytes if cache_bytes is not None else 1 << 30
    )

    alpha = np.zeros(n)
    gamma = -y.copy()
    active = np.ones(n, dtype=bool)
    shrink_interval = min(n, 1000)
    since_shrink = 0
    unshrunk = False
    shrink_passes = 0
    reconstructions = 0
    iterations = 0

    def reconstruct() -> None:
        nonlocal reconstructions
        gamma[:] = -y
        sv = np.flatnonzero(alpha > 0)
        # cache-miss rows arrive in blocked batches; the accumulation
        # order (ascending j) is unchanged
        for j, row in zip(sv, provider.rows(sv)):
            gamma[:] += (alpha[j] * y[j]) * row
        active[:] = True
        reconstructions += 1

    while True:
        act = np.flatnonzero(active)
        a_act, y_act, g_act = alpha[act], y[act], gamma[act]
        up = up_mask(a_act, y_act, C[act])
        low = low_mask(a_act, y_act, C[act])

        up_idx = act[up]
        low_idx = act[low]
        beta_up = float(gamma[up_idx].min()) if up_idx.size else np.inf
        beta_low = float(gamma[low_idx].max()) if low_idx.size else -np.inf
        gap = beta_low - beta_up

        if beta_up + 2.0 * eps >= beta_low:
            if active.all():
                break
            reconstruct()  # certify optimality over the full set
            continue
        if shrinking and not unshrunk and gap <= 20.0 * eps and not active.all():
            # libsvm's "unshrink": one full reconstruction near the end
            reconstruct()
            unshrunk = True
            continue
        if params.max_iter and iterations >= params.max_iter:
            raise ConvergenceError(
                f"libsvm-style solver exceeded max_iter={params.max_iter} "
                f"(gap {gap:.3e})"
            )

        # --- working-set selection -----------------------------------
        i = int(up_idx[np.argmin(gamma[up_idx])])
        row_i = provider.row(i)
        if second_order:
            # WSS 2: maximize the second-order gain among valid partners
            cand = low_idx[gamma[low_idx] > gamma[i]]
            eta = diag[i] + diag[cand] - 2.0 * row_i[cand]
            np.maximum(eta, TAU, out=eta)
            gain = (gamma[cand] - gamma[i]) ** 2 / eta
            j = int(cand[np.argmax(gain)])
        else:
            j = int(low_idx[np.argmax(gamma[low_idx])])
        row_j = provider.row(j)

        new_i, new_j = solve_pair(
            float(diag[i]), float(diag[j]), float(row_i[j]),
            float(y[i]), float(y[j]),
            float(alpha[i]), float(alpha[j]),
            float(gamma[i]), float(gamma[j]),
            float(C[i]), float(C[j]),
        )
        d_i, d_j = new_i - alpha[i], new_j - alpha[j]
        gamma[act] += (y[i] * d_i) * row_i[act] + (y[j] * d_j) * row_j[act]
        alpha[i], alpha[j] = new_i, new_j
        iterations += 1
        since_shrink += 1

        # --- periodic shrink pass ------------------------------------
        if shrinking and since_shrink >= shrink_interval:
            since_shrink = 0
            mask = shrinkable_mask(
                alpha[act], y[act], gamma[act], C[act], beta_up, beta_low
            )
            if mask.any():
                active[act[mask]] = False
                shrink_passes += 1

    beta = compute_beta(gamma, free_mask(alpha, C), beta_up, beta_low)
    return LibsvmResult(
        alpha=alpha,
        gamma=gamma,
        beta=beta,
        iterations=iterations,
        kernel_evals=provider.evals,
        kernel_requests=provider.requests,
        cache_stats=provider.cache.stats(),
        shrink_passes=shrink_passes,
        reconstructions=reconstructions,
        gap=gap,
    )
