"""Index-set classification (Eq. 4) and the shrinking condition (Eq. 9)."""

import numpy as np

from repro.core.sets import (
    I0,
    I1,
    I2,
    I3,
    I4,
    classify,
    free_mask,
    low_mask,
    shrinkable_mask,
    up_mask,
)

C = 10.0
#           I0    I1    I2    I3    I4
ALPHA = np.array([5.0, 0.0, C, C, 0.0])
Y = np.array([1.0, 1.0, -1.0, 1.0, -1.0])


def test_classify_each_set():
    assert classify(ALPHA, Y, C).tolist() == [I0, I1, I2, I3, I4]


def test_up_mask_is_I0_I1_I2():
    assert up_mask(ALPHA, Y, C).tolist() == [True, True, True, False, False]


def test_low_mask_is_I0_I3_I4():
    assert low_mask(ALPHA, Y, C).tolist() == [True, False, False, True, True]


def test_every_sample_in_up_or_low():
    rng = np.random.default_rng(0)
    alpha = rng.choice([0.0, C / 2, C], size=100)
    y = rng.choice([-1.0, 1.0], size=100)
    assert np.all(up_mask(alpha, y, C) | low_mask(alpha, y, C))


def test_free_mask():
    assert free_mask(ALPHA, C).tolist() == [True, False, False, False, False]


def test_boundary_tolerance():
    """α within rounding of a bound counts as at-bound."""
    eps = C * 1e-14
    alpha = np.array([eps, C - eps])
    y = np.array([1.0, 1.0])
    assert classify(alpha, y, C).tolist() == [I1, I3]


def test_shrinkable_low_side():
    """I3/I4 samples with γ < β_up are shrinkable."""
    gamma = np.array([0.0, 0.0, 0.0, -5.0, 2.0])
    m = shrinkable_mask(ALPHA, Y, gamma, C, beta_up=-1.0, beta_low=1.0)
    # sample 3 (I3): γ=-5 < β_up ✓; sample 4 (I4): γ=2 > β_up ✗
    assert m.tolist() == [False, False, False, True, False]


def test_shrinkable_up_side():
    """I1/I2 samples with γ > β_low are shrinkable."""
    gamma = np.array([0.0, 5.0, -2.0, 0.0, 0.0])
    m = shrinkable_mask(ALPHA, Y, gamma, C, beta_up=-1.0, beta_low=1.0)
    assert m.tolist() == [False, True, False, False, False]


def test_free_samples_never_shrinkable():
    gamma = np.full(5, 100.0)
    m = shrinkable_mask(ALPHA, Y, gamma, C, beta_up=-1.0, beta_low=1.0)
    assert not m[0]  # the I0 sample


def test_nothing_shrinkable_inside_band():
    gamma = np.zeros(5)
    m = shrinkable_mask(ALPHA, Y, gamma, C, beta_up=-1.0, beta_low=1.0)
    assert not m.any()


def test_masks_vectorized_shapes():
    alpha = np.zeros((0,))
    y = np.zeros((0,))
    assert up_mask(alpha, y, C).shape == (0,)
    assert shrinkable_mask(alpha, y, np.zeros(0), C, -1, 1).shape == (0,)
