"""λ measurement and projector cross-validation."""

from repro.perfmodel import (
    MachineSpec,
    measure_lambda,
    validate_projector,
    validation_report,
)


def test_measure_lambda_sane():
    lam = measure_lambda(n_rows=500, avg_nnz=30.0, repeats=3)
    # any real host evaluates sparse kernels between 10^4 and 10^10 /s
    assert 1e4 < lam.evals_per_second < 1e10
    assert lam.effective_flop_rate > 1e6
    assert lam.avg_nnz > 0


def test_lambda_as_machine():
    lam = measure_lambda(n_rows=300, avg_nnz=20.0, repeats=2)
    m = lam.as_machine()
    assert m.name == "calibrated-host"
    assert m.flop_rate == lam.effective_flop_rate
    # network parameters inherited from the base spec
    assert m.latency == MachineSpec.cascade().latency


def test_projector_matches_runtime_within_tolerance():
    """The analytic model and the emergent virtual time agree — the
    fidelity claim behind the paper-scale projections."""
    rows = validate_projector(n=150, ps=(1, 2, 4, 8), seed=3)
    for r in rows:
        assert r.relative_error < 0.25, (r.p, r.relative_error)
    # at p = 1 the two accountings are nearly identical
    assert rows[0].relative_error < 0.05


def test_projector_validation_with_shrinking():
    rows = validate_projector(
        n=150, ps=(1, 4), seed=5, heuristic="multi5pc"
    )
    for r in rows:
        assert r.relative_error < 0.35, (r.p, r.relative_error)


def test_validation_report_renders():
    rows = validate_projector(n=80, ps=(1, 2), seed=1)
    text = validation_report(rows)
    assert "rel.err" in text
    assert len(text.splitlines()) == 4
