"""Model round-trip equality: binary and multiclass, bit-exact."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core import SVC, MultiClassSVC, load_model, save_model
from repro.sparse import CSRMatrix
from tests.conftest import make_blobs


def _multiclass_problem(seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
    X = np.vstack([rng.normal(c, 1.0, (30, 2)) for c in centers])
    y = np.repeat([2, 5, 9], 30)
    perm = rng.permutation(90)
    return CSRMatrix.from_dense(X[perm]), y[perm]


def test_bare_model_roundtrip_bitwise(served_model, tmp_path):
    model, pool = served_model
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)

    assert np.array_equal(loaded.sv_coef, model.sv_coef)
    assert loaded.beta == model.beta
    assert np.array_equal(loaded.sv_indices, model.sv_indices)
    assert loaded.sv_X.allclose(model.sv_X, rtol=0.0)
    assert loaded.kernel.name == model.kernel.name
    assert loaded.kernel.params() == model.kernel.params()
    # the payoff: decision values over fresh data are bitwise equal
    assert np.array_equal(
        loaded.decision_function(pool), model.decision_function(pool)
    )


def test_model_json_is_pure_json(served_model, tmp_path):
    model, _ = served_model
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    # floats travel as hex strings / base64 bytes, never lossy literals
    assert isinstance(doc["beta"], str)
    assert isinstance(doc["sv_coef"], str)


def test_awkward_floats_roundtrip_exactly(tmp_path):
    """Subnormals, signed zero, and non-representable decimals survive."""
    from repro.core.model import SVMModel
    from repro.kernels import RBFKernel

    sv = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
    model = SVMModel(
        sv_X=sv,
        sv_coef=np.array([5e-324, -0.1]),  # smallest subnormal + 0.1
        sv_indices=np.array([0, 1]),
        beta=-0.0,
        kernel=RBFKernel(gamma=0.1 + 0.2),  # 0.30000000000000004
    )
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(
        loaded.sv_coef.view(np.uint64), model.sv_coef.view(np.uint64)
    )
    assert np.copysign(1.0, loaded.beta) == -1.0
    assert loaded.kernel.params() == model.kernel.params()


def test_svc_roundtrip(tmp_path):
    X, y = make_blobs(n=80, seed=5)
    y_labels = np.where(y > 0, 3, 8)  # non-±1 label space
    clf = SVC(C=5.0, sigma_sq=2.0).fit(X, y_labels)
    path = tmp_path / "svc.json"
    clf.save(path)
    loaded = SVC.load(path)

    assert np.array_equal(loaded.classes_, clf.classes_)
    assert loaded.classes_.dtype == clf.classes_.dtype
    assert loaded.C == clf.C and loaded.sigma_sq == clf.sigma_sq
    assert np.array_equal(loaded.model_.sv_coef, clf.model_.sv_coef)
    assert loaded.model_.beta == clf.model_.beta
    # predictions in the original label space, bitwise-equal decisions
    assert np.array_equal(loaded.predict(X), clf.predict(X))
    assert np.array_equal(
        loaded.decision_function(X), clf.decision_function(X)
    )


def test_svc_load_rejects_foreign_documents(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="repro-svc"):
        SVC.load(path)


def test_unfitted_svc_save_raises(tmp_path):
    from repro.core import NotFittedError

    with pytest.raises(NotFittedError):
        SVC().save(tmp_path / "x.json")


def test_multiclass_roundtrip(tmp_path):
    X, y = _multiclass_problem()
    clf = MultiClassSVC(C=5.0, sigma_sq=2.0).fit(X, y)
    path = tmp_path / "mc.json"
    clf.save(path)
    loaded = MultiClassSVC.load(path)

    assert np.array_equal(loaded.classes_, clf.classes_)
    assert loaded.n_machines_ == clf.n_machines_ == 3
    for key, machine in clf.machines_.items():
        other = loaded.machines_[key]
        assert np.array_equal(
            other.model_.sv_coef, machine.model_.sv_coef
        )
        assert other.model_.beta == machine.model_.beta
    assert np.array_equal(loaded.predict(X), clf.predict(X))
    assert np.array_equal(loaded.votes(X), clf.votes(X))


def test_documents_with_an_engine_key_still_load(tmp_path):
    """Documents written while ``SVC`` still took ``engine=`` carry
    ``params.engine``; they load, drop the key, and predict bitwise as
    they did when written (``parent_format_docs.json``)."""
    fixture = json.loads(
        (Path(__file__).parent / "parent_format_docs.json").read_text()
    )
    probe = CSRMatrix.from_dense(np.asarray(fixture["probe"]))
    docs = fixture["documents"]
    assert docs["svc_engine_null"]["doc"]["params"]["engine"] is None
    assert docs["svc_engine_legacy"]["doc"]["params"]["engine"] == "legacy"
    for name in ("svc_engine_null", "svc_engine_legacy"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(docs[name]["doc"]))
        clf = SVC.load(path)
        assert clf.predict(probe).tolist() == docs[name]["predict"]
        assert [
            float(v).hex() for v in clf.decision_function(probe)
        ] == docs[name]["decision_hex"]
        assert "engine" not in clf.get_params()
        clf.save(path)
        assert "engine" not in json.loads(path.read_text())["params"]
    path = tmp_path / "multiclass.json"
    path.write_text(json.dumps(docs["multiclass"]["doc"]))
    mc = MultiClassSVC.load(path)
    assert mc.predict(probe).tolist() == docs["multiclass"]["predict"]
    assert mc.votes(probe).tolist() == docs["multiclass"]["votes"]


def test_svc_document_keeps_its_keys(tmp_path):
    """A saved ``repro-svc`` document has the keys of the parent-written
    ones (less the retired ``params.engine``); its recorded run-time
    knobs load back into the classifier's RunConfig."""
    fixture = json.loads(
        (Path(__file__).parent / "parent_format_docs.json").read_text()
    )
    parent = fixture["documents"]["svc_engine_null"]["doc"]
    X, y = make_blobs(n=60, seed=4)
    cfg = RunConfig(heuristic="single5pc", nprocs=2)
    path = tmp_path / "svc.json"
    SVC(C=5.0, sigma_sq=2.0, config=cfg).fit(X, y).save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == set(parent)
    assert set(doc["params"]) == set(parent["params"]) - {"engine"}
    assert (doc["params"]["heuristic"], doc["params"]["nprocs"]) == (
        "single5pc", 2,
    )
    assert SVC.load(path).config == cfg


def test_class_weight_survives_roundtrip(tmp_path):
    X, y = make_blobs(n=80, seed=6)
    clf = SVC(C=2.0, sigma_sq=2.0, class_weight={1.0: 2.0, -1.0: 1.0})
    clf.fit(X, y)
    path = tmp_path / "w.json"
    clf.save(path)
    loaded = SVC.load(path)
    assert loaded.class_weight == {1.0: 2.0, -1.0: 1.0}
    assert np.array_equal(loaded.predict(X), clf.predict(X))
