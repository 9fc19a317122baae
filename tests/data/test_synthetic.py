"""Synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, generate, two_gaussians


def spec(**kw):
    base = dict(
        name="t", n_train=100, n_features=10, n_test=20,
        overlap=0.3, label_noise=0.0, seed=0,
    )
    base.update(kw)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_bad_density(self):
        with pytest.raises(ValueError):
            spec(density=0.0)
        with pytest.raises(ValueError):
            spec(density=1.5)

    def test_bad_overlap(self):
        with pytest.raises(ValueError):
            spec(overlap=-0.1)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            spec(label_noise=0.6)

    def test_bad_balance(self):
        with pytest.raises(ValueError):
            spec(class_balance=0.01)

    def test_bad_style(self):
        with pytest.raises(ValueError):
            spec(feature_style="fourier")

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            spec(n_train=1)


class TestGenerate:
    def test_shapes_and_split(self):
        ds = generate(spec())
        assert ds.n_train == 100
        assert ds.n_test == 20
        assert ds.n_features == 10
        assert ds.y_train.shape == (100,)
        assert ds.y_test.shape == (20,)

    def test_labels_are_pm1_and_balanced(self):
        ds = generate(spec(n_train=200))
        assert set(np.unique(ds.y_train)) == {-1.0, 1.0}
        frac = np.mean(ds.y_train > 0)
        assert 0.35 <= frac <= 0.65

    def test_class_balance_respected(self):
        ds = generate(spec(n_train=300, class_balance=0.8))
        frac = np.mean(
            np.concatenate([ds.y_train, ds.y_test]) > 0
        )
        assert 0.7 <= frac <= 0.9

    def test_deterministic_per_seed(self):
        a = generate(spec(seed=5))
        b = generate(spec(seed=5))
        assert np.array_equal(a.X_train.to_dense(), b.X_train.to_dense())
        assert np.array_equal(a.y_train, b.y_train)
        c = generate(spec(seed=6))
        assert not np.array_equal(a.X_train.to_dense(), c.X_train.to_dense())

    def test_no_test_split(self):
        ds = generate(spec(n_test=0))
        assert ds.X_test is None and ds.y_test is None
        assert ds.n_test == 0

    def test_density_roughly_hit(self):
        ds = generate(spec(n_train=400, density=0.3, feature_style="binary"))
        assert 0.15 <= ds.density <= 0.45

    def test_overlap_controls_separability(self):
        easy = generate(spec(n_train=600, overlap=0.05, seed=2))
        hard = generate(spec(n_train=600, overlap=1.0, seed=2))

        def lda_acc(ds):
            Xd = ds.X_train.to_dense()
            y = ds.y_train
            w = Xd[y > 0].mean(0) - Xd[y < 0].mean(0)
            s = (Xd - Xd.mean(0)) @ w
            return max(np.mean((s > 0) == (y > 0)), np.mean((s <= 0) == (y > 0)))

        assert lda_acc(easy) > lda_acc(hard) + 0.02

    def test_target_dist_sq_rescaling(self):
        ds = generate(spec(n_train=150, target_dist_sq=9.0, seed=4))
        Xd = ds.X_train.to_dense()
        d2 = ((Xd[:60, None, :] - Xd[None, :60, :]) ** 2).sum(-1)
        mean = d2[np.triu_indices(60, 1)].mean()
        assert 4.0 <= mean <= 16.0  # ballpark of the 9.0 target

    def test_label_noise_flips_labels(self):
        clean = generate(spec(n_train=300, label_noise=0.0, seed=7))
        noisy = generate(spec(n_train=300, label_noise=0.2, seed=7))
        assert np.mean(clean.y_train != noisy.y_train) > 0.05

    def test_sparse_path_high_dimensional(self):
        ds = generate(
            spec(n_train=60, n_test=0, n_features=5000, density=0.01,
                 feature_style="binary")
        )
        assert ds.n_features == 5000
        assert ds.density < 0.05
        assert ds.X_train.nnz > 0

    def test_describe(self):
        text = generate(spec()).describe()
        assert "train=100" in text and "d=10" in text


class TestScaled:
    def test_scaled_shrinks(self):
        s = spec(n_train=10_000, n_test=1000, n_features=400).scaled(0.01)
        assert s.n_train == 100
        assert s.n_test == 10
        assert 8 <= s.n_features < 400

    def test_scaled_floor(self):
        s = spec(n_train=100, n_features=10).scaled(1e-6)
        assert s.n_train >= 16
        assert s.n_features >= 8

    def test_scaled_identity(self):
        s = spec().scaled(1.0)
        assert s.n_train == 100 and s.n_features == 10

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            spec().scaled(0.0)

    def test_scaled_preserves_nnz_budget_for_sparse(self):
        s = spec(n_train=10_000, n_features=100_000, density=1e-4).scaled(0.01)
        avg_nnz = s.density * s.n_features
        assert 5 <= avg_nnz <= 20  # original budget was 10 nnz/row


def test_two_gaussians_toy():
    ds = two_gaussians(n=100, overlap=0.2, seed=1)
    assert ds.n_train == 100
    assert ds.n_features == 2
    assert set(np.unique(ds.y_train)) == {-1.0, 1.0}
