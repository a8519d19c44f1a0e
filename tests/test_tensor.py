import numpy as np
import numpy.testing as npt
import pytest

from emocnn.tensor import Prng, gaussian_init


def test_gaussian_init_zero_std_is_constant():
    t = gaussian_init((3, 4), mean=0.25, std=0.0, rng=Prng(0))
    npt.assert_array_equal(t, np.full((3, 4), 0.25, dtype=np.float32))


def test_gaussian_init_negative_std_rejected():
    with pytest.raises(ValueError):
        gaussian_init((2,), mean=0.0, std=-1.0, rng=Prng(0))


def test_gaussian_init_deterministic_under_seed():
    a = gaussian_init((100,), 0.0, 0.01, Prng(42))
    b = gaussian_init((100,), 0.0, 0.01, Prng(42))
    npt.assert_array_equal(a, b)


def test_gaussian_init_sample_moments():
    # law-of-large-numbers check: 1e5 draws at std 0.01
    t = gaussian_init((100_000,), 0.0, 0.01, Prng(7), dtype=np.float64)
    assert abs(t.mean()) < 1e-3
    assert abs(t.std() - 0.01) < 0.001


def test_prng_same_seed_same_stream():
    npt.assert_array_equal(Prng(9).raw(64), Prng(9).raw(64))


def test_prng_distinct_seeds_differ_quickly():
    assert not np.array_equal(Prng(1).raw(16), Prng(2).raw(16))


def test_prng_uniform_range():
    u = Prng(3).uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_prng_permutation_is_permutation():
    perm = Prng(4).permutation(257)
    npt.assert_array_equal(np.sort(perm), np.arange(257))


def test_prng_permutation_deterministic():
    npt.assert_array_equal(Prng(5).permutation(100), Prng(5).permutation(100))


def test_prng_normal_moments():
    z = Prng(6).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_prng_mask_keep_fraction():
    mask = Prng(8).mask((100_000,), 0.3)
    assert abs(mask.mean() - 0.3) < 0.01
