"""The solver's bitwise answer, kept as golden data.

The packed iteration engine (fused election Allreduce, compacted
active-set state, owner-rooted pair broadcast) once ran beside the
rank-0-relay engine it replaced, and the two had to agree exactly: α,
β, the iteration sequence, kernel-eval counts and shrink iterations, at
every process count, for every Table II heuristic.  That agreement now
lives in ``engine_golden.json``: it was written while both engines ran
every case below and were asserted equal, and the one engine left must
reproduce each recorded field exactly.

Only inputs whose kernel values are exact in any summation order can be
golden data.  ``kernel.pair`` sums through ``np.dot``, whose BLAS kernel
(and so its rounding) is picked per CPU, and RBF's vectorized ``exp``
differs by host as well.  The golden cases therefore use the linear
kernel on 0/1 features — the one-hot mushrooms miniature, and the w7a
miniature with every stored value set to 1.0 — where every inner
product is a small integer.  The RBF half of the matrix keeps an
in-process check instead: α and the iteration count are bitwise equal
at every process count.

The miniatures never have a sample that a pending shrink will
eliminate win the election right after the shrink fires, so they
cannot see the election's candidate exclusion.  Two more cases, on
small integer-valued two-class data (:func:`integer_blobs`), can: at
iteration 2 such a sample holds the smallest up-side γ.

After a deliberate change of the solver's answer, rewrite the golden
file by running this module as a script from the repository root::

    PYTHONPATH=src python tests/core/test_engine_equivalence.py

With ``--diff`` the script writes nothing and prints every field a
fresh run changes against the committed file, per case and per p.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVMParams, fit_parallel
from repro.core.shrinking import HEURISTICS
from repro.data import DATASETS, load_dataset
from repro.kernels import LinearKernel, RBFKernel
from repro.sparse.csr import CSRMatrix

GOLDEN_PATH = Path(__file__).with_name("engine_golden.json")

PS = (1, 2, 3, 5)

#: (registry name, scale) — two miniatures with different sparsity
#: structure (dense-ish one-hot mushrooms vs sparse w7a)
MINIATURES = [("mushrooms", 0.02), ("w7a", 0.006)]

#: heuristics of the cases on :func:`integer_blobs`: their first
#: shrink fires at iteration 1 and binds the candidate exclusion of the
#: election that follows it
SHRINK_EXCLUSION_HEURISTICS = ("multi2", "single2")
SHRINK_EXCLUSION_C = 32.0

#: the non-default WSS policies, on the 0/1 w7a miniature
WSS_CASES = [
    (wss, heur, cache_mb)
    for wss in ("second_order", "planning_ahead")
    for heur in ("multi5pc", "single5pc")
    for cache_mb in (0.0, 2.0)
]

#: fingerprint fields that every process count must reproduce ...
SHARED = (
    "alpha_sha256", "iterations", "shrink_iters", "reconstructions",
    "pair_broadcasts",
)
#: ... and those recorded per process count (kernel evals count the
#: 3 pair evaluations once per rank; β and vtime sum in a p-dependent
#: order; the traffic is p-dependent by nature)
PER_P = ("kernel_evals", "beta", "vtime", "messages", "bytes")


def _ones(X: CSRMatrix) -> CSRMatrix:
    """``X`` with every stored value set to 1.0 (same sparsity)."""
    return CSRMatrix(np.ones_like(X.data), X.indices, X.indptr, X.shape)


def integer_blobs(seed=315, n=102, d=7):
    """Two classes of 0/1 features, the positive class shifted by 1:
    every stored value is 1 or 2."""
    rng = np.random.default_rng(seed)
    half = n // 2
    Xd = np.vstack([
        rng.integers(0, 2, (half, d)) + 1, rng.integers(0, 2, (n - half, d)),
    ]).astype(np.float64)
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    perm = rng.permutation(n)
    return CSRMatrix.from_dense(Xd[perm]), y[perm]


def load_miniatures() -> dict:
    """``name -> (X, X_golden, y, C, sigma_sq)``; ``X_golden`` is the
    0/1-valued input the golden cases run on."""
    out = {}
    for name, scale in MINIATURES:
        ds = load_dataset(name, scale=scale)
        classes = np.unique(ds.y_train)
        y = np.where(ds.y_train == classes[1], 1.0, -1.0)
        entry = DATASETS[name]
        X = ds.X_train
        X_golden = _ones(X) if name == "w7a" else X
        out[name] = (X, X_golden, y, entry.C, entry.sigma_sq)
    return out


def _linear(C: float) -> SVMParams:
    return SVMParams(C=C, kernel=LinearKernel(), eps=1e-3, max_iter=200_000)


def _fit(X, y, params, heur, p, wss="mvp", cache_mb=0.0):
    return fit_parallel(
        X, y, params,
        config=RunConfig(
            heuristic=heur, nprocs=p, wss=wss, kernel_cache_mb=cache_mb,
        ),
    )


def fingerprint(fr) -> dict:
    """Every recorded field of one fit, exact (floats as ``float.hex``)."""
    alpha = np.ascontiguousarray(fr.alpha, dtype=np.float64)
    return {
        "alpha_sha256": hashlib.sha256(alpha.tobytes()).hexdigest(),
        "iterations": int(fr.iterations),
        "shrink_iters": [int(i) for i in fr.trace.shrink_iters],
        "reconstructions": int(fr.trace.n_reconstructions()),
        "pair_broadcasts": int(fr.trace.pair_broadcasts),
        "kernel_evals": int(fr.stats.kernel_evals),
        "beta": float(fr.model.beta).hex(),
        "vtime": float(fr.vtime).hex(),
        "messages": int(fr.stats.messages),
        "bytes": int(fr.stats.bytes_sent),
    }


def golden_cases(minis: dict):
    """``(key, X, y, params, heur, wss, cache_mb)`` for every case."""
    for name, _ in MINIATURES:
        _, Xg, y, C, _ = minis[name]
        for heur in sorted(HEURISTICS):
            yield f"{name}/{heur}/mvp/0", Xg, y, _linear(C), heur, "mvp", 0.0
    _, Xg, y, C, _ = minis["w7a"]
    for wss, heur, cache_mb in WSS_CASES:
        key = f"w7a/{heur}/{wss}/{cache_mb:g}"
        yield key, Xg, y, _linear(C), heur, wss, cache_mb
    X, y = integer_blobs()
    for heur in SHRINK_EXCLUSION_HEURISTICS:
        key = f"integer_blobs/{heur}/mvp/0"
        yield key, X, y, _linear(SHRINK_EXCLUSION_C), heur, "mvp", 0.0


def record(X, y, params, heur, wss, cache_mb) -> dict:
    """The golden entry of one case: run it at every p in :data:`PS`."""
    entry = None
    for p in PS:
        fp = fingerprint(_fit(X, y, params, heur, p, wss, cache_mb))
        if entry is None:
            entry = {k: fp[k] for k in SHARED}
            entry["p"] = {}
        else:
            for k in SHARED:
                assert fp[k] == entry[k], f"{k} differs at p={p}"
        entry["p"][str(p)] = {k: fp[k] for k in PER_P}
    return entry


def fresh_golden() -> dict:
    """Every case's golden entry, recorded by a fresh run."""
    return {
        key: record(X, y, params, heur, wss, cache_mb)
        for key, X, y, params, heur, wss, cache_mb
        in golden_cases(load_miniatures())
    }


def write_golden(path: Path = GOLDEN_PATH) -> None:
    """Rewrite the golden file, one case per line."""
    lines = [
        f"{json.dumps(key)}: " + json.dumps(entry, sort_keys=True)
        for key, entry in fresh_golden().items()
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def diff_golden(path: Path = GOLDEN_PATH) -> list:
    """One line per field a fresh run changes against the golden file:
    ``case: field old -> new``, or ``case p=N: field old -> new`` for
    the per-p fields."""
    old, new = json.loads(path.read_text()), fresh_golden()
    lines = [f"{key}: only in the golden file" for key in old if key not in new]
    for key, entry in new.items():
        want = old.get(key)
        if want is None:
            lines.append(f"{key}: not in the golden file")
            continue
        lines += [
            f"{key}: {k} {want[k]} -> {entry[k]}"
            for k in SHARED if entry[k] != want[k]
        ]
        for p in PS:
            was, now = want["p"].get(str(p), {}), entry["p"][str(p)]
            lines += [
                f"{key} p={p}: {k} {was.get(k)} -> {now[k]}"
                for k in PER_P if now[k] != was.get(k)
            ]
    return lines


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def miniatures():
    return load_miniatures()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches_golden(golden, key, X, y, params, heur, wss, cache_mb):
    want = golden[key]
    for p in PS:
        fp = fingerprint(_fit(X, y, params, heur, p, wss, cache_mb))
        for k in SHARED:
            assert fp[k] == want[k], f"{key} p={p}: {k}"
        assert {k: fp[k] for k in PER_P} == want["p"][str(p)], f"{key} p={p}"


def test_golden_inputs_are_integer_valued(miniatures):
    """Every golden dot product must be exact in any summation order."""
    for name, _ in MINIATURES:
        _, Xg, _, _, _ = miniatures[name]
        assert np.all(Xg.data == 1.0), name
    X, _ = integer_blobs()
    assert set(np.unique(X.data)) == {1.0, 2.0}


@pytest.mark.parametrize("kernel_name", ["linear", "rbf"])
@pytest.mark.parametrize("dataset", [name for name, _ in MINIATURES])
@pytest.mark.parametrize("heur", sorted(HEURISTICS))
def test_engines_bitwise_identical(
    miniatures, golden, dataset, kernel_name, heur
):
    """linear: the answer both engines agreed on, from the golden file;
    rbf: the in-process cross-p check."""
    X, Xg, y, C, sigma_sq = miniatures[dataset]
    if kernel_name == "linear":
        _assert_matches_golden(
            golden, f"{dataset}/{heur}/mvp/0", Xg, y, _linear(C), heur,
            "mvp", 0.0,
        )
        return
    params = SVMParams(
        C=C, kernel=RBFKernel.from_sigma_sq(sigma_sq), eps=1e-3,
        max_iter=200_000,
    )
    ref = _fit(X, y, params, heur, PS[0])
    for p in PS[1:]:
        fr = _fit(X, y, params, heur, p)
        # the iteration sequence is process-count independent
        assert np.array_equal(fr.alpha, ref.alpha), f"p={p}"
        assert fr.iterations == ref.iterations, f"p={p}"


@pytest.mark.parametrize("wss,heur,cache_mb", WSS_CASES)
def test_wss_policies_match_golden(miniatures, golden, wss, heur, cache_mb):
    _, Xg, y, C, _ = miniatures["w7a"]
    _assert_matches_golden(
        golden, f"w7a/{heur}/{wss}/{cache_mb:g}", Xg, y, _linear(C), heur,
        wss, cache_mb,
    )


@pytest.mark.parametrize("heur", SHRINK_EXCLUSION_HEURISTICS)
def test_shrink_exclusion_matches_golden(golden, heur):
    """Without the pending shrink's candidate exclusion, a sample the
    shrink eliminates would win the election at iteration 2."""
    X, y = integer_blobs()
    _assert_matches_golden(
        golden, f"integer_blobs/{heur}/mvp/0", X, y,
        _linear(SHRINK_EXCLUSION_C), heur, "mvp", 0.0,
    )


def test_golden_covers_every_case(miniatures, golden):
    assert sorted(golden) == sorted(
        case[0] for case in golden_cases(miniatures)
    )


def test_packed_vtime_deterministic(miniatures):
    """Same inputs at same p -> bitwise identical virtual time."""
    X, _, y, C, sigma_sq = miniatures["mushrooms"]
    params = SVMParams(
        C=C, kernel=RBFKernel.from_sigma_sq(sigma_sq), eps=1e-3,
        max_iter=200_000,
    )
    a = _fit(X, y, params, "multi5pc", 3)
    b = _fit(X, y, params, "multi5pc", 3)
    assert a.vtime == b.vtime
    assert np.array_equal(a.alpha, b.alpha)
    assert a.stats.kernel_evals == b.stats.kernel_evals


def test_engine_toggle_is_gone(miniatures):
    """One iteration engine: no layer accepts an engine choice."""
    import dataclasses

    from repro.core import SVC
    from repro.perfmodel import MachineSpec, project, project_stream

    assert len(dataclasses.fields(RunConfig)) == 12
    with pytest.raises(TypeError):
        RunConfig(engine="packed")
    X, _, y, C, _ = miniatures["mushrooms"]
    with pytest.raises(TypeError):
        fit_parallel(X, y, _linear(C), engine="packed")
    with pytest.raises(TypeError):
        SVC(engine="packed")
    tr = _fit(X, y, _linear(C), "original", 1).trace
    m = MachineSpec.cascade()
    with pytest.raises(TypeError):
        project(tr, m, 4, engine="packed")
    with pytest.raises(TypeError):
        project_stream(
            tr, tr, m, 4, n_new=1, n_sv=1, avg_nnz=1.0, engine="packed"
        )


if __name__ == "__main__":
    if "--diff" in sys.argv[1:]:
        changed = diff_golden()
        print("\n".join(changed) if changed else "no field changed")
    else:
        write_golden()
        print(f"wrote {GOLDEN_PATH}")
