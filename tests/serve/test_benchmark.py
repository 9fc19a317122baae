"""The serving benchmark: quick-mode smoke."""

from __future__ import annotations

import json

from repro.serve.benchmark import FAULT_PLANS, format_report, run_serve_bench


def test_quick_report():
    r = run_serve_bench(quick=True)
    assert r["quick"] and all(c["bitwise_identical"] for c in r["configs"])
    assert r["cache_replay"]["hits"] > 0
    runs = r["faulted_runs"]
    assert [run["faults"] for run in runs] == list(FAULT_PLANS)
    assert all(run["bitwise_identical"] for run in runs)
    total = runs[-1]["fault_stats"]  # every message dropped, each recovered
    assert 0 < total["dropped"] == total["retransmitted"]
    assert "cache replay" in format_report(r)
    json.dumps(r, allow_nan=False)  # strict JSON round-trips
