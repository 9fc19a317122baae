"""End-to-end integration: data generation → distributed training →
prediction → serialization, across engines and process counts."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import (
    SVC,
    SVMParams,
    fit_parallel,
    solve_libsvm_style,
    solve_sequential,
)
from repro.core.model import SVMModel
from repro.data import load_dataset, two_gaussians
from repro.kernels import RBFKernel
from repro.perfmodel import MachineSpec
from repro.sparse import dumps_libsvm, loads_libsvm


def test_full_pipeline_on_registry_dataset():
    ds = load_dataset("w7a", scale=0.02)
    clf = SVC(
        C=32.0, sigma_sq=64.0, config=RunConfig(heuristic="multi5pc", nprocs=3)
    )
    clf.fit(ds.X_train, ds.y_train)
    acc = clf.score(ds.X_test, ds.y_test)
    assert acc > 0.9

    # model round-trips through plain data
    m2 = SVMModel.from_dict(clf.model_.to_dict())
    assert np.array_equal(m2.predict(ds.X_test), clf.model_.predict(ds.X_test))


def test_three_solvers_agree_on_one_problem():
    ds = two_gaussians(n=120, overlap=0.35, seed=3)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5), eps=1e-3)
    seq = solve_sequential(ds.X_train, ds.y_train, params)
    lib = solve_libsvm_style(ds.X_train, ds.y_train, params)
    par = fit_parallel(ds.X_train, ds.y_train, params,
                       config=RunConfig(heuristic="multi5pc", nprocs=4))
    assert np.allclose(seq.alpha, par.alpha, atol=0.05 * params.C)
    assert np.allclose(seq.alpha, lib.alpha, atol=0.05 * params.C)
    assert abs(seq.beta - par.model.beta) < 0.05
    assert abs(seq.beta - lib.beta) < 0.05


def test_training_data_roundtrips_through_libsvm_format():
    ds = two_gaussians(n=60, overlap=0.3, seed=4)
    text = dumps_libsvm(ds.X_train, ds.y_train)
    X2, y2 = loads_libsvm(text, n_features=ds.n_features)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5))
    a = fit_parallel(
        ds.X_train, ds.y_train, params, config=RunConfig(nprocs=2)
    )
    b = fit_parallel(X2, y2, params, config=RunConfig(nprocs=2))
    assert np.allclose(a.alpha, b.alpha, atol=1e-9)


def test_machine_choice_changes_vtime_not_solution():
    ds = two_gaussians(n=80, overlap=0.3, seed=5)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5))
    fast = fit_parallel(
        ds.X_train, ds.y_train, params,
        config=RunConfig(nprocs=2, machine=MachineSpec.cascade()),
    )
    slow_machine = MachineSpec.python_host()
    slow = fit_parallel(
        ds.X_train, ds.y_train, params,
        config=RunConfig(nprocs=2, machine=slow_machine),
    )
    assert np.array_equal(fast.alpha, slow.alpha)
    assert slow.vtime > fast.vtime  # python host is slower per flop


def test_imbalanced_classes():
    rng = np.random.default_rng(6)
    n_pos, n_neg = 12, 88
    Xd = np.vstack([
        rng.normal(2.0, 0.8, (n_pos, 3)),
        rng.normal(-2.0, 0.8, (n_neg, 3)),
    ])
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    clf = SVC(C=10.0, gamma=0.5, config=RunConfig(nprocs=2)).fit(Xd, y)
    pred = clf.predict(Xd)
    assert np.mean(pred[:n_pos] == 1.0) > 0.8  # minority class learned


def test_tiny_problem_more_ranks_than_sensible():
    """p == n: one sample per rank still converges correctly."""
    ds = two_gaussians(n=16, overlap=0.1, seed=7)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5))
    fr = fit_parallel(
        ds.X_train, ds.y_train, params, config=RunConfig(nprocs=16)
    )
    ref = solve_sequential(ds.X_train, ds.y_train, params)
    assert np.array_equal(fr.alpha, ref.alpha)


def test_duplicate_samples_handled():
    ds = two_gaussians(n=30, overlap=0.2, seed=8)
    from repro.sparse import CSRMatrix

    X = CSRMatrix.vstack([ds.X_train, ds.X_train])
    y = np.concatenate([ds.y_train, ds.y_train])
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5))
    fr = fit_parallel(
        X, y, params, config=RunConfig(heuristic="multi2", nprocs=3)
    )
    assert fr.model.accuracy(X, y) > 0.9


def test_vtime_reported_consistently():
    ds = two_gaussians(n=60, overlap=0.3, seed=9)
    params = SVMParams(C=10.0, kernel=RBFKernel(0.5))
    fr = fit_parallel(
        ds.X_train, ds.y_train, params, config=RunConfig(nprocs=3)
    )
    assert fr.vtime == fr.stats.vtime == fr.spmd.vtime > 0
