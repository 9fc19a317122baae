"""CLI smoke tests (in-process, no subprocess)."""

import numpy as np
import pytest

from repro.cli import main
from repro.config import RunConfig
from repro.core.model import load_model, save_model
from repro.data import load_dataset
from repro.sparse import save_libsvm


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "higgs" in out
    assert "multi5pc" in out
    assert "Table II" in out or "heuristics" in out


def test_train_registry_dataset(capsys):
    rc = main([
        "train", "--dataset", "mushrooms", "--nprocs", "2",
        "--heuristic", "multi5pc",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iterations=" in out
    # the kernel-reuse counters, summed over ranks
    assert "columns=" in out and "carried=" in out
    assert "pair-memo-hits=" in out
    assert "train accuracy" in out


def test_train_file_and_predict_roundtrip(tmp_path, capsys):
    ds = load_dataset("mushrooms")
    train_path = tmp_path / "train.libsvm"
    save_libsvm(train_path, ds.X_train, ds.y_train)
    model_path = tmp_path / "model.json"

    rc = main([
        "train", "--train-file", str(train_path),
        "--C", "10", "--sigma-sq", "4", "--model-out", str(model_path),
    ])
    assert rc == 0
    assert model_path.exists()
    capsys.readouterr()

    rc = main([
        "predict", "--model", str(model_path),
        "--data", str(train_path), "--nprocs", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    labels = [line for line in out.splitlines() if line.strip()]
    assert len(labels) == ds.n_train
    assert set(labels) <= {"+1", "-1"}


def test_predict_scores_flag(tmp_path, capsys):
    ds = load_dataset("mushrooms")
    train_path = tmp_path / "train.libsvm"
    save_libsvm(train_path, ds.X_train, ds.y_train)
    model_path = tmp_path / "model.json"
    main(["train", "--train-file", str(train_path), "--C", "10",
          "--sigma-sq", "4", "--model-out", str(model_path)])
    capsys.readouterr()
    main(["predict", "--model", str(model_path), "--data", str(train_path),
          "--scores"])
    out = capsys.readouterr().out
    values = [float(v) for v in out.split()]
    assert len(values) == ds.n_train


def test_bad_machine_rejected():
    with pytest.raises(SystemExit):
        main(["train", "--dataset", "mushrooms", "--machine", "quantum"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_model_file_roundtrip(tmp_path):
    from repro.core import SVMParams, fit_parallel
    from repro.kernels import RBFKernel

    ds = load_dataset("mushrooms")
    fr = fit_parallel(
        ds.X_train, ds.y_train,
        SVMParams(C=10.0, kernel=RBFKernel(0.25)),
        config=RunConfig(nprocs=2),
    )
    path = tmp_path / "m.json"
    save_model(fr.model, path)
    loaded = load_model(path)
    assert np.allclose(
        loaded.decision_function(ds.X_train),
        fr.model.decision_function(ds.X_train),
    )


def test_train_wss_and_cache_flags(capsys):
    rc = main([
        "train", "--dataset", "mushrooms", "--scale", "0.02",
        "--nprocs", "2", "--wss", "second_order",
        "--kernel-cache-mb", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wss=second_order" in out
    assert "elections=" in out
    assert "cache hits=" in out
    assert "hit-rate=" in out


def test_train_default_hides_wss_line(capsys):
    rc = main([
        "train", "--dataset", "mushrooms", "--scale", "0.02",
        "--nprocs", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wss=" not in out


def test_bad_wss_rejected():
    with pytest.raises(SystemExit):
        main(["train", "--dataset", "mushrooms", "--wss", "newton"])


RUNCONFIG_FLAGS = (
    "--nprocs", "--machine", "--heuristic", "--comm", "--wss",
    "--kernel-cache-mb", "--dc", "--faults",
)


@pytest.mark.parametrize("cmd", ["train", "serve-bench", "stream-bench"])
def test_runconfig_flags_shared_across_subcommands(cmd, capsys):
    # one add_runconfig_args() registration — the knob surface must be
    # flag-identical on every subcommand that trains or benches
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in RUNCONFIG_FLAGS:
        assert flag in out
    # one iteration engine: there is nothing to select
    assert "--engine" not in out


def test_runconfig_from_args_builds_config():
    import argparse

    from repro.cli import add_runconfig_args, runconfig_from_args

    p = argparse.ArgumentParser()
    add_runconfig_args(p)
    args = p.parse_args([
        "--nprocs", "4", "--wss", "second_order",
        "--kernel-cache-mb", "2", "--machine", "multinode:8",
    ])
    cfg = runconfig_from_args(args)
    assert cfg.nprocs == 4
    assert cfg.wss == "second_order"
    assert cfg.kernel_cache_mb == 2.0
    assert cfg.machine.ranks_per_node == 8
    assert cfg.heuristic == "multi5pc"  # default preserved


def test_stream_bench_cli(tmp_path, capsys, monkeypatch):
    import json

    from repro.stream import benchmark as SB

    canned = {
        "bench": "stream", "quick": True,
        "spec": {"drift": "rotate"},
        "scenario": {"nprocs": 2},
        "eval_reduction_bar": 2.0, "min_batches": 10,
        "stream": {
            "n_batches": 3, "batch_size": 8, "refreshes": 3,
            "cumulative_kernel_evals": 100,
            "cumulative_cold_kernel_evals": 250,
            "eval_reduction": 2.5, "final_n_sv": 5,
            "mean_prequential_accuracy": 0.9,
            "accuracy_over_time": [None, 0.9],
        },
        "projection": {
            "machine": "multinode", "ranks_per_node": 16,
            "n_sv": 5, "sweep": [],
        },
    }
    seen = {}

    def fake_bench(quick=False, config=None):
        seen["quick"], seen["config"] = quick, config
        return canned

    monkeypatch.setattr(SB, "run_stream_bench", fake_bench)
    out = tmp_path / "stream.json"
    rc = main([
        "stream-bench", "--quick", "--out", str(out), "--nprocs", "4",
    ])
    assert rc == 0
    assert seen["quick"] is True
    assert seen["config"].nprocs == 4
    assert json.loads(out.read_text())["bench"] == "stream"
    assert "eval reduction" in capsys.readouterr().out
