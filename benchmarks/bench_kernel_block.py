"""Microbenchmark: blocked kernel-evaluation engine vs per-sample loops.

Three wall-clock comparisons between equivalent code paths, bitwise
equivalent but for the two serving-slab orientations (see
``tests/core/test_blocked_equivalence.py`` and
``tests/sparse/test_dot_csr_t.py`` for the equivalence proofs):

1. **Reconstruction fold** — Algorithm 3's inner fold on p=4 simulated
   ranks with ≥1000 contributing samples, run once with the paper's
   literal per-sample loop (kept here, as the prediction row keeps its
   own) and once with the ring's CSR×CSRᵀ slab fold.
2. **Prediction** — ``SVMModel.decision_function`` (blocked slabs) vs a
   row-at-a-time loop over ``Kernel.row_against_block``.
3. **Serving slab** — one ``dot_csr_t`` of a slab of 1/3/16/64 rows of
   the real-sim stand-in and a 272-row support-vector shard (one rank's
   half of the repository benchmark's 544-SV serving model), in µs per
   call: shard-major (``shard.dot_csr_t(slab)``, the shard's nonzeros
   walked against the slab's dense tile, as the scorers run it) vs
   slab-major (``slab.dot_csr_t(shard)``, the whole shard scattered into
   a dense tile for every slab).  Every shard-major column is asserted
   bitwise equal to the row path's ``shard.dot_sparse_vec(*slab.row(i))``;
   the two orientations sum in different orders, so they are asserted
   ``allclose`` only.

The script writes ``BENCH_kernel_block.json`` at the repo root
(machine-readable problem sizes + speedup factors); the pytest entry
writes its report under pytest's ``tmp_path`` instead.  Run either
way::

    python benchmarks/bench_kernel_block.py [--quick] [--out PATH]
    pytest benchmarks/bench_kernel_block.py --benchmark-only

``--quick`` times every row once, on fewer calls, and keeps every
equality assertion.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.model import SVMModel
from repro.core.reconstruction import _apply_chunk, _pack_contrib
from repro.core.state import make_blocks
from repro.data import load_dataset
from repro.kernels import RBFKernel
from repro.sparse import BlockPartition, CSRMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_kernel_block.json"

KERNEL = RBFKernel(0.5)
REPEATS = 3

# reconstruction problem: p ranks, ≥1000 contributing (α>0) samples
RECON_N = 1400
RECON_P = 4
RECON_D = 48
ALPHA_FRAC = 0.8
SHRINK_FRAC = 0.25

# prediction problem
PRED_N_TEST = 2000
PRED_N_SV = 600
PRED_D = 48

# serving-slab problem: perfbench's serve model is 544 SVs of the
# real-sim stand-in at this scale, 272 a rank at p=2
SLAB_DATASET, SLAB_SCALE = "real-sim", 0.03
SLAB_SHARD_ROWS = 272
SLAB_ROWS = (1, 3, 16, 64)
SLAB_CALLS = 50


def _sparse_blobs(n: int, d: int, seed: int, density: float = 0.25):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, d)) * (rng.random((n, d)) < density)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return CSRMatrix.from_dense(dense), y


def _recon_blocks(seed: int = 0):
    """Fresh per-rank blocks with a large support set and stale rows."""
    X, y = _sparse_blobs(RECON_N, RECON_D, seed)
    rng = np.random.default_rng(seed + 1)
    alpha = np.where(rng.random(RECON_N) < ALPHA_FRAC,
                     rng.random(RECON_N) * 5.0, 0.0)
    shrunk = rng.random(RECON_N) < SHRINK_FRAC
    part = BlockPartition(RECON_N, RECON_P)
    blocks = make_blocks(X, y, part)
    for r, blk in enumerate(blocks):
        lo, hi = part.bounds(r)
        blk.alpha[:] = alpha[lo:hi]
        blk.active[:] = ~shrunk[lo:hi]
        blk.gamma[shrunk[lo:hi]] = 999.0
    return blocks, int(np.count_nonzero(alpha)), int(np.count_nonzero(shrunk))


def _fold_workload():
    """Per-rank fold inputs for one Algorithm 3 reconstruction: each
    rank's shrunk set plus the p visiting blocks it folds in rank order
    (the deterministic engine's buffered sequence)."""
    blocks, contributing, shrunk = _recon_blocks()
    chunks = [_pack_contrib(blk) for blk in blocks]
    ranks = []
    for blk in blocks:
        shrunk_idx = np.flatnonzero(~blk.active)
        ranks.append(
            (blk.X.take_rows(shrunk_idx), blk.norms[shrunk_idx], shrunk_idx.size)
        )
    return ranks, chunks, contributing, shrunk


def _fold_rowwise(kernel, X_shr, norms_shr, accum, chunk) -> None:
    """The paper's literal fold: one kernel column per visiting sample."""
    blob, coefs, norms = chunk
    Xc = CSRMatrix.from_bytes(blob)
    for j in range(Xc.shape[0]):
        ji, jv = Xc.row(j)
        accum += coefs[j] * kernel.row_against_block(
            X_shr, norms_shr, ji, jv, float(norms[j])
        )


#: the per-sample loop vs the ring's fold (one kernel slab per tile)
FOLDS = {"rowwise": _fold_rowwise, "blocked": _apply_chunk}


def _run_folds(ranks, chunks, fold) -> np.ndarray:
    """Every rank's buffered rank-order fold; returns the accumulators."""
    accums = []
    for X_shr, norms_shr, n_shr in ranks:
        accum = np.zeros(n_shr)
        for chunk in chunks:
            fold(KERNEL, X_shr, norms_shr, accum, chunk)
        accums.append(accum)
    return np.concatenate(accums)


def _time_reconstruction(repeats: int) -> dict:
    """Best-of-``repeats`` wall-clock for the fold phase, both folds."""
    ranks, chunks, contributing, shrunk = _fold_workload()
    times = {}
    results = {}
    for name, fold in FOLDS.items():
        _run_folds(ranks, chunks, fold)  # warm allocator + caches
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            results[name] = _run_folds(ranks, chunks, fold)
            best = min(best, time.perf_counter() - t0)
        times[name] = best
    if not np.array_equal(results["rowwise"], results["blocked"]):
        raise AssertionError("blocked and per-sample folds disagree")
    return {
        "n": RECON_N,
        "d": RECON_D,
        "nprocs": RECON_P,
        "contributing_samples": contributing,
        "shrunk_samples": shrunk,
        "rowwise_seconds": times["rowwise"],
        "blocked_seconds": times["blocked"],
        "speedup": times["rowwise"] / times["blocked"],
    }


def _prediction_setup():
    sv_X, _ = _sparse_blobs(PRED_N_SV, PRED_D, seed=10)
    rng = np.random.default_rng(11)
    coef = rng.normal(size=PRED_N_SV)
    model = SVMModel(
        sv_X=sv_X,
        sv_coef=coef,
        sv_indices=np.arange(PRED_N_SV),
        beta=0.25,
        kernel=KERNEL,
    )
    X_test, _ = _sparse_blobs(PRED_N_TEST, PRED_D, seed=12)
    return model, X_test


def _predict_rowwise(model: SVMModel, X: CSRMatrix) -> np.ndarray:
    """Pre-engine prediction: one kernel column per test row."""
    norms = model.sv_X.row_norms_sq()
    test_norms = X.row_norms_sq()
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        xi, xv = X.row(i)
        krow = model.kernel.row_against_block(
            model.sv_X, norms, xi, xv, float(test_norms[i])
        )
        out[i] = krow @ model.sv_coef - model.beta
    return out


def _time_prediction(repeats: int):
    model, X_test = _prediction_setup()
    model.decision_function(X_test)  # warm allocator + caches
    _predict_rowwise(model, X_test)
    t_block = t_row = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        f_blocked = model.decision_function(X_test)
        t_block = min(t_block, time.perf_counter() - t0)
        t0 = time.perf_counter()
        f_rowwise = _predict_rowwise(model, X_test)
        t_row = min(t_row, time.perf_counter() - t0)
    if not np.allclose(f_blocked, f_rowwise, atol=1e-10):
        raise AssertionError("blocked and row-wise predictions disagree")
    return t_row, t_block


def _per_call_us(fn, calls: int, repeats: int) -> float:
    """Best-of-``repeats`` mean µs of ``calls`` back-to-back calls."""
    fn()  # warm allocator + caches
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


def _time_serving_slab(calls: int, repeats: int) -> dict:
    """One serving rank's slab product, in both orientations."""
    X = load_dataset(SLAB_DATASET, scale=SLAB_SCALE).X_train
    shard = X.row_slice(0, SLAB_SHARD_ROWS)
    rows = []
    lo = SLAB_SHARD_ROWS
    for r in SLAB_ROWS:
        slab = X.row_slice(lo, lo + r)
        lo += r
        shard_major = shard.dot_csr_t(slab)
        for i in range(r):
            column = shard.dot_sparse_vec(*slab.row(i))
            if column.tobytes() != shard_major[:, i].tobytes():
                raise AssertionError(
                    f"shard-major column {i} of a {r}-row slab differs "
                    f"from the row path"
                )
        if not np.allclose(slab.dot_csr_t(shard).T, shard_major):
            raise AssertionError(f"the two orientations disagree at {r} rows")
        slab_us = _per_call_us(lambda: slab.dot_csr_t(shard), calls, repeats)
        shard_us = _per_call_us(lambda: shard.dot_csr_t(slab), calls, repeats)
        rows.append({
            "slab_rows": r,
            "slab_nnz": slab.nnz,
            "slab_major_us": slab_us,
            "shard_major_us": shard_us,
            "speedup": slab_us / shard_us,
        })
    return {
        "dataset": SLAB_DATASET,
        "scale": SLAB_SCALE,
        "n_features": X.shape[1],
        "shard_rows": SLAB_SHARD_ROWS,
        "shard_nnz": shard.nnz,
        "columns_bitwise_rowwise": True,
        "slabs": rows,
    }


def run_bench(quick: bool = False, out: Path = OUT_PATH) -> dict:
    repeats = 1 if quick else REPEATS
    p_row, p_block = _time_prediction(repeats)
    report = {
        "quick": quick,
        "reconstruction_fold": _time_reconstruction(repeats),
        "prediction": {
            "n_test": PRED_N_TEST,
            "n_sv": PRED_N_SV,
            "d": PRED_D,
            "rowwise_seconds": p_row,
            "blocked_seconds": p_block,
            "speedup": p_row / p_block,
        },
        "serving_slab": _time_serving_slab(
            SLAB_CALLS // 10 if quick else SLAB_CALLS, repeats
        ),
    }
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_blocked_engine_speedup(tmp_path):
    report = run_bench(out=tmp_path / OUT_PATH.name)
    recon = report["reconstruction_fold"]
    assert recon["contributing_samples"] >= 1000
    assert recon["nprocs"] == 4
    # the acceptance bar: batched SpGEMM folds ≥3× faster than the
    # per-sample loop at this scale
    assert recon["speedup"] >= 3.0
    # prediction mainly gains bounded scratch memory; the loose bound
    # only guards against a real regression (timer noise spans ~±20%)
    assert report["prediction"]["speedup"] >= 0.8


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="time every row once, on fewer calls")
    ap.add_argument("--out", default=str(OUT_PATH),
                    help="report path (default: repo root)")
    args = ap.parse_args()

    out = Path(args.out)
    report = run_bench(quick=args.quick, out=out)
    print(json.dumps(report, indent=2))
    recon = report["reconstruction_fold"]
    print(
        f"\nreconstruction fold: {recon['speedup']:.1f}x "
        f"({recon['rowwise_seconds']*1e3:.1f} ms -> "
        f"{recon['blocked_seconds']*1e3:.1f} ms, "
        f"{recon['contributing_samples']} contributing samples, "
        f"p={recon['nprocs']})"
    )
    pred = report["prediction"]
    print(
        f"prediction:          {pred['speedup']:.1f}x "
        f"({pred['rowwise_seconds']*1e3:.1f} ms -> "
        f"{pred['blocked_seconds']*1e3:.1f} ms, "
        f"{pred['n_test']} rows x {pred['n_sv']} SVs)"
    )
    slab = report["serving_slab"]
    print(
        f"serving slab and a {slab['shard_rows']}-row shard of "
        f"{slab['n_features']} features (shard-major columns bitwise "
        f"the row path's):"
    )
    for row in slab["slabs"]:
        print(
            f"  {row['slab_rows']:>3} rows: slab-major "
            f"{row['slab_major_us']:7.1f} us -> shard-major "
            f"{row['shard_major_us']:7.1f} us ({row['speedup']:.2f}x)"
        )
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
