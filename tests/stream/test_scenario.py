"""Drift-scenario harness: determinism, policies, registry refresh."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import RunConfig
from repro.data.synthetic import DriftStreamSpec, drift_stream
from repro.serve import ModelRegistry
from repro.stream import IncrementalSVC, StreamScenario, run_stream
from repro.stream.scenario import RefreshPolicy

SPEC = DriftStreamSpec(
    n_batches=5, batch_size=24, rotate_per_batch=0.1, noise=0.2, seed=7
)


def scenario(**kw):
    base = dict(
        spec=SPEC, C=5.0, gamma=0.5, config=RunConfig(nprocs=2)
    )
    base.update(kw)
    return StreamScenario(**base)


def test_run_stream_deterministic():
    r1 = run_stream(scenario())
    r2 = run_stream(scenario())
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
        r2.to_dict(), sort_keys=True
    )


def test_prequential_scoring_uses_served_model():
    report = run_stream(scenario())
    # batch 0 has no served model yet: no prequential score
    assert report.batches[0].prequential_accuracy is None
    assert report.batches[0].served_version is None
    # afterwards every batch is scored by the version served *before*
    # its refresh landed
    for b in report.batches[1:]:
        assert b.prequential_accuracy is not None
        assert b.served_version is not None
        if b.refreshed:
            assert b.new_version != b.served_version
    assert report.mean_prequential_accuracy is not None


def test_every_k_policy_spaces_refreshes():
    report = run_stream(scenario(policy=RefreshPolicy(every_k=2)))
    refreshed = [b.batch for b in report.batches if b.refreshed]
    # batch 0 always publishes (nothing is being served yet), then
    # every 2nd trained batch
    assert refreshed == [0, 2, 4]
    assert report.refreshes == 3
    for b in report.batches:
        if b.refreshed:
            assert b.time_to_refresh is not None and b.time_to_refresh > 0
        else:
            assert b.time_to_refresh is None


def test_accuracy_floor_triggers_refresh():
    # an impossible floor forces the drift trigger on every scored batch
    report = run_stream(
        scenario(policy=RefreshPolicy(every_k=100, accuracy_floor=1.0))
    )
    triggers = [b.refresh_trigger for b in report.batches]
    assert triggers[0] == "every_k"  # nothing served yet
    assert all(t == "accuracy" for t in triggers[1:])


def test_policy_validation():
    with pytest.raises(ValueError, match="every_k"):
        RefreshPolicy(every_k=0)
    with pytest.raises(ValueError, match="accuracy_floor"):
        RefreshPolicy(accuracy_floor=1.5)


def test_registry_hot_swapped_in_place():
    registry = ModelRegistry()
    report = run_stream(scenario(), registry=registry)
    # one version per refresh, latest active — the fleet was refreshed
    # in place through the registry's atomic hot-swap
    assert len(registry) == report.refreshes
    assert registry.active_version == max(registry.versions())
    assert registry.label(registry.active_version).startswith("stream-batch-")


def test_certified_run_reports_eval_reduction():
    report = run_stream(scenario(certify=True))
    assert all(r["certified"] for r in report.refits)
    assert report.cumulative_cold_kernel_evals is not None
    assert report.eval_reduction == pytest.approx(
        report.cumulative_cold_kernel_evals / report.cumulative_kernel_evals
    )
    # uncertified runs have no cold baseline
    assert run_stream(scenario()).eval_reduction is None


def _assert_faulted_stream_identical(faults):
    X_probe, _ = (
        drift_stream(DriftStreamSpec(n_batches=1, batch_size=40, seed=42))
    )[0]

    def final_scores(faults):
        clf = IncrementalSVC(
            C=5.0, gamma=0.5, config=RunConfig(nprocs=2, faults=faults)
        )
        dropped = 0
        for Xb, yb in drift_stream(SPEC):
            clf.partial_fit(Xb, yb)
            if faults is not None:
                stats = clf.fit_result_.spmd.fault_stats["stats"]
                dropped += stats["dropped"]
        return clf.decision_function(X_probe), clf.alpha_, dropped

    clean_scores, clean_alpha, _ = final_scores(None)
    fault_scores, fault_alpha, dropped = final_scores(faults)
    assert 0 < dropped
    assert np.array_equal(clean_scores, fault_scores)
    assert np.array_equal(clean_alpha, fault_alpha)


def test_faulted_stream_bitwise_identical():
    _assert_faulted_stream_identical("seed=5;drop:prob=0.02")


def test_total_drop_stream_bitwise_identical():
    # every message of every refit is dropped and recovered
    _assert_faulted_stream_identical("drop:prob=1.0")


def test_report_json_clean():
    report = run_stream(scenario(certify=True))
    doc = json.dumps(report.to_dict(), allow_nan=False)
    assert json.loads(doc)["n_batches"] == SPEC.n_batches
